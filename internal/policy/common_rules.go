package policy

import (
	"policyflow/internal/bundle"
	"policyflow/internal/rules"
)

// Salience bands used by the rule sets. Higher fires first. Completion
// events are processed before new advice so freed streams are visible to
// subsequent allocations, as the paper requires ("as transfers complete and
// free up streams, those streams are allocated to new transfers").
const (
	salClusterRelease   = 210
	salCompletion       = 200
	salEventGC          = 190
	salDupStaged        = 110
	salDupInProgress    = 105
	salDupInBatch       = 100
	salCreateResource   = 90
	salAssociate        = 85
	salDefaultStreams   = 80
	salCreateGroup      = 78
	salAssignGroup      = 76
	salCreateThreshold  = 70
	salCreateLedger     = 68
	salClusterSetup     = 60
	salClusterLedger    = 58
	salAllocate         = 50
	salMinOneStream     = 40
	salCleanupDup       = 100
	salCleanupDetach    = 95
	salCleanupInUse     = 90
	salCleanupApprove   = 85
	salCleanupCompleted = 200
)

// commonTransferRules implements Table I ("policies enforced for all
// transfers"): duplicate suppression, resource creation and association,
// default stream assignment, group-ID generation and assignment, threshold
// and ledger bootstrap, completion processing, and the minimum-one-stream
// guard. newGroupID must return a fresh unique group identifier. active
// returns the active bundle; it is evaluated inside rule bodies (not
// captured at construction) so bundle activations apply to every
// subsequent firing.
func commonTransferRules(active func() *bundle.Bundle, newGroupID func() string) []*rules.Rule {
	return []*rules.Rule{
		// "Remove duplicate transfers from the transfer list" (already
		// staged by this or another workflow).
		{
			Name:     "transfer-duplicate-already-staged",
			Salience: salDupStaged,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted
				}),
				rules.MatchOn("r", "dest", keyTransferDest, func(b rules.Bindings, r *Resource) bool {
					t := b.Get("t").(*Transfer)
					return r.Staged && r.DestURL == t.DestURL
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				t.State = TransferDuplicate
				t.DupReason = "already-staged"
				ctx.Update(t)
			},
		},
		// "Remove transfers from the transfer list that are already in
		// progress".
		{
			Name:     "transfer-duplicate-in-progress",
			Salience: salDupInProgress,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted
				}),
				rules.MatchOn("u", "dest", keyTransferDest, func(b rules.Bindings, u *Transfer) bool {
					t := b.Get("t").(*Transfer)
					return u.State == TransferInProgress && u.DestURL == t.DestURL
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				t.State = TransferDuplicate
				t.DupReason = "in-progress"
				ctx.Update(t)
			},
		},
		// Duplicates inside one submitted batch: the earliest request (by
		// assigned ID) wins.
		{
			Name:     "transfer-duplicate-in-batch",
			Salience: salDupInBatch,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted
				}),
				rules.MatchOn("u", "dest", keyTransferDest, func(b rules.Bindings, u *Transfer) bool {
					t := b.Get("t").(*Transfer)
					return u.DestURL == t.DestURL && u.ID < t.ID &&
						(u.State == TransferSubmitted || u.State == TransferAdvised)
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				t.State = TransferDuplicate
				t.DupReason = "duplicate-in-batch"
				ctx.Update(t)
			},
		},
		// "Create a resource for a new transfer to track the resulting
		// staged file".
		{
			Name:     "transfer-create-resource",
			Salience: salCreateResource,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted
				}),
				rules.NotOn("dest", keyTransferDest, func(b rules.Bindings, r *Resource) bool {
					return r.DestURL == b.Get("t").(*Transfer).DestURL
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				ctx.Insert(&Resource{
					DestURL:   t.DestURL,
					SourceURL: t.SourceURL,
					Users:     make(map[string]int),
				})
			},
		},
		// "Associate a transfer with a resource to track the number of
		// workflows using the staged file". Duplicates associate too: a
		// workflow whose staging was suppressed still uses the file, so
		// cleanup by another workflow must be blocked.
		{
			Name:     "transfer-associate-resource",
			Salience: salAssociate,
			NoLoop:   true,
			When: []rules.Pattern{
				rules.MatchOn("t", "pending", keyConst(true), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted || t.State == TransferDuplicate
				}),
				rules.MatchOn("r", "dest", keyTransferDest, func(b rules.Bindings, r *Resource) bool {
					return r.DestURL == b.Get("t").(*Transfer).DestURL
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				r := ctx.Get("r").(*Resource)
				r.Users[t.WorkflowID]++
				ctx.Update(r)
			},
		},
		// "Assign a default level of parallel streams to a transfer".
		{
			Name:     "transfer-default-streams",
			Salience: salDefaultStreams,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted && t.RequestedStreams <= 0
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				t.RequestedStreams = active().DefaultStreams
				ctx.Update(t)
			},
		},
		// "Generate a unique group ID for a source and destination host
		// pair".
		{
			Name:     "transfer-create-group",
			Salience: salCreateGroup,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted
				}),
				rules.NotOn("pair", keyTransferPair, func(b rules.Bindings, g *Group) bool {
					return g.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				ctx.Insert(&Group{Pair: t.Pair, ID: newGroupID()})
			},
		},
		// "Assign the group ID to a transfer based on its source and
		// destination host pair".
		{
			Name:     "transfer-assign-group",
			Salience: salAssignGroup,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted && t.GroupID == ""
				}),
				rules.MatchOn("g", "pair", keyTransferPair, func(b rules.Bindings, g *Group) bool {
					return g.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				t.GroupID = ctx.Get("g").(*Group).ID
				ctx.Update(t)
			},
		},
		// "Retrieve the parallel streams threshold defined between a source
		// and destination host": bootstrap the pair's threshold fact from
		// the service default when the administrator set none explicitly.
		{
			Name:     "transfer-create-threshold",
			Salience: salCreateThreshold,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted
				}),
				rules.NotOn("pair", keyTransferPair, func(b rules.Bindings, th *Threshold) bool {
					return th.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				ctx.Insert(&Threshold{Pair: t.Pair, Max: active().DefaultThreshold})
			},
		},
		// Bootstrap the stream ledger that records allocations against the
		// threshold.
		{
			Name:     "transfer-create-ledger",
			Salience: salCreateLedger,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferSubmitted), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferSubmitted
				}),
				rules.NotOn("pair", keyTransferPair, func(b rules.Bindings, l *StreamLedger) bool {
					return l.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				ctx.Insert(&StreamLedger{Pair: t.Pair})
			},
		},
		// "Ensure each transfer has at least one parallel stream assigned".
		{
			Name:     "transfer-min-one-stream",
			Salience: salMinOneStream,
			When: []rules.Pattern{
				rules.MatchOn("t", "state", keyConst(TransferAdvised), func(b rules.Bindings, t *Transfer) bool {
					return t.State == TransferAdvised && t.AllocatedStreams < active().MinStreams
				}),
				rules.MatchOn("l", "pair", keyTransferPair, func(b rules.Bindings, l *StreamLedger) bool {
					return l.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				l := ctx.Get("l").(*StreamLedger)
				min := active().MinStreams
				l.Allocated += min - t.AllocatedStreams
				t.AllocatedStreams = min
				ctx.Update(t)
				ctx.Update(l)
			},
		},
		// "Remove a transfer that has completed": release its streams,
		// mark the staged file, drop the detailed state. The resource fact
		// survives so re-staging the same file is suppressed.
		{
			Name:     "transfer-completed",
			Salience: salCompletion,
			When: []rules.Pattern{
				rules.Match("e", func(b rules.Bindings, e *TransferResult) bool {
					return !e.Failed
				}),
				rules.MatchOn("t", "id", keyResultTransferID, func(b rules.Bindings, t *Transfer) bool {
					return t.ID == b.Get("e").(*TransferResult).TransferID
				}),
				rules.MatchOn("l", "pair", keyTransferPair, func(b rules.Bindings, l *StreamLedger) bool {
					return l.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				l := ctx.Get("l").(*StreamLedger)
				l.Allocated -= t.AllocatedStreams
				if l.Allocated < 0 {
					l.Allocated = 0
				}
				if r, ok := rules.FirstByKey[*Resource](ctx, "dest", t.DestURL); ok {
					r.Staged = true
					ctx.Update(r)
				}
				ctx.Update(l)
				ctx.Retract(t)
				ctx.Retract(ctx.Get("e"))
			},
		},
		// "Remove a transfer that has failed": release streams but do not
		// mark the file staged, so the client's retry is not suppressed.
		{
			Name:     "transfer-failed",
			Salience: salCompletion,
			When: []rules.Pattern{
				rules.Match("e", func(b rules.Bindings, e *TransferResult) bool {
					return e.Failed
				}),
				rules.MatchOn("t", "id", keyResultTransferID, func(b rules.Bindings, t *Transfer) bool {
					return t.ID == b.Get("e").(*TransferResult).TransferID
				}),
				rules.MatchOn("l", "pair", keyTransferPair, func(b rules.Bindings, l *StreamLedger) bool {
					return l.Pair == b.Get("t").(*Transfer).Pair
				}),
			},
			Then: func(ctx *rules.Context) {
				t := ctx.Get("t").(*Transfer)
				l := ctx.Get("l").(*StreamLedger)
				l.Allocated -= t.AllocatedStreams
				if l.Allocated < 0 {
					l.Allocated = 0
				}
				if r, ok := rules.FirstByKey[*Resource](ctx, "dest", t.DestURL); ok {
					if r.Users[t.WorkflowID] > 0 {
						r.Users[t.WorkflowID]--
						if r.Users[t.WorkflowID] == 0 {
							delete(r.Users, t.WorkflowID)
						}
						ctx.Update(r)
					}
				}
				ctx.Update(l)
				ctx.Retract(t)
				ctx.Retract(ctx.Get("e"))
			},
		},
		// Garbage-collect completion events whose transfer is unknown
		// (e.g. double reports).
		{
			Name:     "transfer-result-unknown",
			Salience: salEventGC,
			When: []rules.Pattern{
				rules.Match[*TransferResult]("e", nil),
				rules.NotOn("id", keyResultTransferID, func(b rules.Bindings, t *Transfer) bool {
					return t.ID == b.Get("e").(*TransferResult).TransferID
				}),
			},
			Then: func(ctx *rules.Context) { ctx.Retract(ctx.Get("e")) },
		},
	}
}

// cleanupRules implements the cleanup lifecycle of Section II.B.2 and the
// cleanup-related entries of Table I: duplicate suppression, detaching the
// requesting workflow from the resource, suppression of cleanups for files
// other workflows still use, and removal of completed-cleanup state.
func cleanupRules() []*rules.Rule {
	return []*rules.Rule{
		// "Remove cleanups ... [when] the cleanup operation is in progress
		// or completed" — duplicate cleanup suppression.
		{
			Name:     "cleanup-duplicate",
			Salience: salCleanupDup,
			When: []rules.Pattern{
				rules.MatchOn("c", "state", keyConst(CleanupSubmitted), func(b rules.Bindings, c *Cleanup) bool {
					return c.State == CleanupSubmitted
				}),
				rules.MatchOn("d", "file", keyCleanupFile, func(b rules.Bindings, d *Cleanup) bool {
					c := b.Get("c").(*Cleanup)
					if d.FileURL != c.FileURL {
						return false
					}
					return d.State == CleanupAdvised || d.State == CleanupInProgress ||
						(d.State == CleanupSubmitted && d.ID < c.ID)
				}),
			},
			Then: func(ctx *rules.Context) {
				c := ctx.Get("c").(*Cleanup)
				c.State = CleanupRemoved
				c.Reason = "duplicate"
				ctx.Update(c)
			},
		},
		// "Detach a transfer from the resource when it requests to cleanup
		// the resource's staged file": the requesting workflow stops using
		// the file.
		{
			Name:     "cleanup-detach-workflow",
			Salience: salCleanupDetach,
			NoLoop:   true,
			When: []rules.Pattern{
				rules.MatchOn("c", "state", keyConst(CleanupSubmitted), func(b rules.Bindings, c *Cleanup) bool {
					return c.State == CleanupSubmitted
				}),
				rules.MatchOn("r", "dest", keyCleanupFile, func(b rules.Bindings, r *Resource) bool {
					c := b.Get("c").(*Cleanup)
					_, uses := r.Users[c.WorkflowID]
					return r.DestURL == c.FileURL && uses
				}),
			},
			Then: func(ctx *rules.Context) {
				c := ctx.Get("c").(*Cleanup)
				r := ctx.Get("r").(*Resource)
				delete(r.Users, c.WorkflowID)
				ctx.Update(r)
			},
		},
		// "Remove cleanups from the cleanup list that specify resources
		// that have other transfers using the staged files".
		{
			Name:     "cleanup-file-in-use",
			Salience: salCleanupInUse,
			When: []rules.Pattern{
				rules.MatchOn("c", "state", keyConst(CleanupSubmitted), func(b rules.Bindings, c *Cleanup) bool {
					return c.State == CleanupSubmitted
				}),
				rules.MatchOn("r", "dest", keyCleanupFile, func(b rules.Bindings, r *Resource) bool {
					c := b.Get("c").(*Cleanup)
					return r.DestURL == c.FileURL && r.UsedByOther(c.WorkflowID)
				}),
			},
			Then: func(ctx *rules.Context) {
				c := ctx.Get("c").(*Cleanup)
				c.State = CleanupRemoved
				c.Reason = "in-use"
				ctx.Update(c)
			},
		},
		// "Insert new cleanups into policy memory for resources that no
		// longer have transfers using their staged files" — approve what
		// survived suppression.
		{
			Name:     "cleanup-approve",
			Salience: salCleanupApprove,
			When: []rules.Pattern{
				rules.MatchOn("c", "state", keyConst(CleanupSubmitted), func(b rules.Bindings, c *Cleanup) bool {
					return c.State == CleanupSubmitted
				}),
			},
			Then: func(ctx *rules.Context) {
				c := ctx.Get("c").(*Cleanup)
				c.State = CleanupAdvised
				ctx.Update(c)
			},
		},
		// Completed cleanups: drop the cleanup and its resource from
		// Policy Memory (the staged file no longer exists).
		{
			Name:     "cleanup-completed",
			Salience: salCleanupCompleted,
			When: []rules.Pattern{
				rules.Match[*CleanupResult]("e", nil),
				rules.MatchOn("c", "id", keyCleanupResultID, func(b rules.Bindings, c *Cleanup) bool {
					return c.ID == b.Get("e").(*CleanupResult).CleanupID
				}),
			},
			Then: func(ctx *rules.Context) {
				c := ctx.Get("c").(*Cleanup)
				if r, ok := rules.FirstByKey[*Resource](ctx, "dest", c.FileURL); ok {
					ctx.Retract(r)
				}
				ctx.Retract(c)
				ctx.Retract(ctx.Get("e"))
			},
		},
		// Garbage-collect cleanup results whose cleanup is unknown.
		{
			Name:     "cleanup-result-unknown",
			Salience: salEventGC,
			When: []rules.Pattern{
				rules.Match[*CleanupResult]("e", nil),
				rules.NotOn("id", keyCleanupResultID, func(b rules.Bindings, c *Cleanup) bool {
					return c.ID == b.Get("e").(*CleanupResult).CleanupID
				}),
			},
			Then: func(ctx *rules.Context) { ctx.Retract(ctx.Get("e")) },
		},
	}
}
