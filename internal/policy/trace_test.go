package policy

import (
	"strings"
	"testing"

	"policyflow/internal/bundle"
)

// firedRules lists, one per line, the rules that fired in every decision
// the service recorded, in firing order.
func firedRules(s *Service) string {
	var names []string
	for _, rec := range s.Decisions(0) {
		for _, f := range rec.RulesFired {
			names = append(names, f.Rule)
		}
	}
	return strings.Join(names, "\n")
}

// TestTableRulesActuallyFire drives a representative lifecycle and asserts
// — via the decision records' rule firings — that the paper's Tables I and II policies
// execute as rules, not as hidden imperative code.
func TestTableRulesActuallyFire(t *testing.T) {
	s := newGreedy(t, 10, 8)
	// Lifecycle: stage two files (the second trims against the
	// threshold), complete them, duplicate request, then cleanups from
	// two workflows.
	adv, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf1"), spec(2, "wf1")})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tr := range adv.Transfers {
		ids = append(ids, tr.ID)
	}
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: ids}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdviseTransfers([]TransferSpec{spec(1, "wf2")}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdviseCleanups([]CleanupSpec{{RequestID: "c1", WorkflowID: "wf1", FileURL: spec(1, "").DestURL}}); err != nil {
		t.Fatal(err)
	}
	cadv, err := s.AdviseCleanups([]CleanupSpec{{RequestID: "c2", WorkflowID: "wf2", FileURL: spec(1, "").DestURL}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cadv.Cleanups) == 1 {
		if _, err := s.ReportCleanups(CleanupReport{CleanupIDs: []string{cadv.Cleanups[0].ID}}); err != nil {
			t.Fatal(err)
		}
	}

	trace := firedRules(s)
	for _, rule := range []string{
		// Table I
		"transfer-create-resource",
		"transfer-associate-resource",
		"transfer-default-streams",
		"transfer-create-group",
		"transfer-assign-group",
		"transfer-create-threshold",
		"transfer-create-ledger",
		"transfer-completed",
		"transfer-duplicate-already-staged",
		// Table II
		"greedy-allocate",
		// Cleanup lifecycle
		"cleanup-detach-workflow",
		"cleanup-file-in-use",
		"cleanup-approve",
		"cleanup-completed",
	} {
		if !strings.Contains(trace, rule) {
			t.Errorf("rule %q never fired; trace:\n%s", rule, trace)
		}
	}
}

// TestBalancedRulesFire does the same for Table III.
func TestBalancedRulesFire(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Algorithm = AlgoBalanced
	cfg.DefaultThreshold = 16
	cfg.DefaultStreams = 8
	cfg.ClusterFactor = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := spec(1, "wf1")
	sp.ClusterID = "A"
	adv, err := s.AdviseTransfers([]TransferSpec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportTransfers(CompletionReport{TransferIDs: []string{adv.Transfers[0].ID}}); err != nil {
		t.Fatal(err)
	}
	trace := firedRules(s)
	for _, rule := range []string{
		"balanced-create-cluster-threshold",
		"balanced-create-cluster-ledger",
		"balanced-allocate",
		"balanced-release-cluster",
	} {
		if !strings.Contains(trace, rule) {
			t.Errorf("rule %q never fired; trace:\n%s", rule, trace)
		}
	}
}

// TestPriorityRuleFires covers the future-work priority weighting rule.
func TestPriorityRuleFires(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	activateEdited(t, s, "weighted", func(b *bundle.Bundle) { b.Priority = defaultPriorityWeighting() })
	if _, err := s.AdviseTransfers([]TransferSpec{prioSpec(1, 1), prioSpec(2, 5), prioSpec(3, 9)}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(firedRules(s), "priority-weight-streams") {
		t.Error("priority-weight-streams never fired")
	}
}
