package policyhttp

// Accessors that only this package's tests read.

// Leader returns the index of the replica that last acknowledged a call,
// -1 when unknown.
func (rc *ReplicatedClient) Leader() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.leader
}

// Stats returns (successful syncs, failed attempts).
func (s *StandbySyncer) Stats() (syncs, failures int) {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	return s.syncs, s.errors
}
