package policy

import "context"

// Convenience wrappers over Execute that only tests call.

// SetThreshold sets the maximum number of parallel streams between a host
// pair, overriding the default for that pair from now on.
func (s *Service) SetThreshold(srcHost, dstHost string, max int) error {
	_, err := s.Execute(context.Background(), OpSetThreshold, ThresholdOp{SourceHost: srcHost, DestHost: dstHost, Max: max})
	return err
}

// RollbackBundle re-activates the previously active bundle, restoring its
// thresholds and algorithm without a restart. The rollback is itself a
// logged activation, so a second rollback returns to where you were.
func (s *Service) RollbackBundle() (*BundleInfo, error) {
	return Call[*BundleInfo](context.Background(), s, OpActivateBundle, BundleOp{Rollback: true})
}
