package store

// Checkpoint forces a snapshot checkpoint and WAL truncation now. It is
// a no-op for memory-only stores.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.wal == nil {
		return nil
	}
	return s.checkpointLocked()
}
