package store

// Mapped reports whether the reader serves from a memory mapping
// (OpenReaderMmap on a supporting platform) rather than file reads.
func (r *Reader) Mapped() bool { return r.mem != nil }
