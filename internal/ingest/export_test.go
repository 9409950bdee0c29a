package ingest

// DeadBytes reports the bytes superseded footers and record framing
// occupy — the compaction trigger's input.
func (s *Store) DeadBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deadBytes
}

// Pending reports accepted-but-uncommitted frames.
func (s *Store) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Abort drops every handle without committing — the crash seam for
// recovery tests: the files on disk are left exactly as a power cut
// at this instant would, log tail and all.
func (s *Store) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.bg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Close()
	if old := s.cur.Swap(nil); old != nil {
		old.release()
	}
}
