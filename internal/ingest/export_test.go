package ingest

import (
	"fmt"
	"os"
)

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

// FillSpecs interns n placeholder specs, as if that many earlier frames
// had each named its own codec: the spec-limit tests' way to a full
// table without ingesting 65 535 frames. The next commit writes them.
func (s *Store) FillSpecs(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := 0; k < n; k++ {
		if _, err := s.idx.SpecID(fmt.Sprintf("fill:k=%d", k)); err != nil {
			return err
		}
	}
	return nil
}

// NumSpecs reports the spec table's size, the default included.
func (s *Store) NumSpecs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.NumSpecs()
}

// SwapFile replaces the store's file handle and returns the old one: a
// read-only handle makes the next commit's footer write fail.
func (s *Store) SwapFile(f *os.File) *os.File {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.f
	s.f = f
	return old
}
