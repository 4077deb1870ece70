// Package policy implements the paper's Policy Service: the policy engine,
// Policy Memory and the policy rule sets of Tables I–III, plus the
// structure-based transfer ordering of Section III(c).
//
// The service receives lists of requested transfers (or cleanups) from a
// transfer client such as the Pegasus Transfer Tool, inserts them as facts
// into the working memory of a long-lived rule session, fires the policy
// rules, and returns a modified list: duplicates removed, transfers grouped
// by source/destination host pair, parallel-stream counts assigned by the
// configured allocation algorithm (greedy, balanced, or pass-through), and
// the list ordered by priority and group.
//
// Policy Memory persists across requests: staged files are tracked as
// Resource facts with per-workflow usage so multiple workflows can share
// staged files safely and cleanup of in-use files is suppressed.
//
// The tunables (algorithm, stream defaults and floor, thresholds, cluster
// factor, priority weighting) live in one place, the active policy bundle
// (see bundle.go): Config only seeds the bootstrap v0 bundle, and pair
// thresholds and priority weighting come only from an activated bundle
// or set_threshold.
//
// An op's payload or result that travels whole over the RESTful interface
// is its own wire document: a zero-size first field XMLName struct{} names
// its XML root element. encoding/xml takes the name from that tag when
// encoding and checks it when decoding, and records it only into an
// xml.Name, so a value decoded from XML equals the in-process one.
// Likewise each fact type a StateDump carries is its own dump entry, its
// json and xml tags naming its fields on disk and on the wire.
package policy

import "fmt"

// TransferState tracks a Transfer fact through its lifecycle.
type TransferState int

const (
	// TransferSubmitted is the state of a freshly inserted request.
	TransferSubmitted TransferState = iota
	// TransferDuplicate marks a request suppressed as a duplicate.
	TransferDuplicate
	// TransferAdvised means policies have been applied (streams, group).
	TransferAdvised
	// TransferInProgress means the advice was returned to the client,
	// which is now executing the transfer.
	TransferInProgress
)

// String implements fmt.Stringer.
func (s TransferState) String() string {
	switch s {
	case TransferSubmitted:
		return "submitted"
	case TransferDuplicate:
		return "duplicate"
	case TransferAdvised:
		return "advised"
	case TransferInProgress:
		return "in-progress"
	default:
		return fmt.Sprintf("TransferState(%d)", int(s))
	}
}

// HostPair identifies a (source host, destination host) pair, the unit the
// paper's stream thresholds and group IDs are defined over.
type HostPair struct {
	Src string `json:"src" xml:"src"`
	Dst string `json:"dst" xml:"dst"`
}

// Pair is the name the per-pair facts embed HostPair under, so their
// x.Pair selectors and Pair: literals read as before while JSON and XML
// put src and dst inline.
type Pair = HostPair

// Transfer is the working-memory fact for one staging request, and its
// own StateDump entry.
type Transfer struct {
	// ID is the service-assigned unique transfer ID (paper: "assigns each
	// transfer a unique ID so that the transfers can be monitored").
	ID string `json:"id" xml:"id"`
	// RequestID is the caller-supplied identifier, echoed back in advice.
	RequestID string `json:"requestId,omitempty" xml:"requestId,omitempty"`
	// WorkflowID identifies the requesting workflow (for file sharing).
	WorkflowID string `json:"workflowId,omitempty" xml:"workflowId,omitempty"`
	// JobID is the staging job this transfer belongs to.
	JobID string `json:"jobId,omitempty" xml:"jobId,omitempty"`
	// ClusterID identifies the transfer cluster (balanced allocation).
	ClusterID string `json:"clusterId,omitempty" xml:"clusterId,omitempty"`
	// SourceURL and DestURL are the endpoints of the transfer.
	SourceURL string `json:"sourceUrl" xml:"sourceUrl"`
	DestURL   string `json:"destUrl" xml:"destUrl"`
	// Pair is the host pair derived from the URLs; not dumped, because
	// import derives it again with PairOf.
	Pair HostPair `json:"-" xml:"-"`
	// SizeBytes is the expected transfer size (0 if unknown).
	SizeBytes int64 `json:"sizeBytes,omitempty" xml:"sizeBytes,omitempty"`
	// RequestedStreams is the number of parallel streams the client asked
	// for; 0 means "use the service default".
	RequestedStreams int `json:"requestedStreams" xml:"requestedStreams"`
	// AllocatedStreams is the advice produced by the allocation policy.
	AllocatedStreams int `json:"allocatedStreams" xml:"allocatedStreams"`
	// GroupID groups transfers sharing a host pair for session reuse.
	GroupID string `json:"groupId,omitempty" xml:"groupId,omitempty"`
	// Priority orders transfers (higher first); set from workflow
	// structure by the planner or by the client.
	Priority int `json:"priority,omitempty" xml:"priority,omitempty"`
	// State is the lifecycle state.
	State TransferState `json:"state" xml:"state"`
	// DupReason explains a TransferDuplicate state; not dumped, because a
	// duplicate is retracted before the operation that marked it ends.
	DupReason string `json:"-" xml:"-"`
}

// Resource is the working-memory fact tracking one staged file at its
// destination URL (paper: "Create a resource for a new transfer to track
// the resulting staged file").
type Resource struct {
	// DestURL identifies the staged file.
	DestURL string
	// SourceURL records where the file was staged from.
	SourceURL string
	// Staged is true once some transfer for this file has completed.
	Staged bool
	// Users counts active usages per workflow ID. A workflow is detached
	// when it requests cleanup of the file.
	Users map[string]int
}

// UsedByOther reports whether any workflow other than wf uses the resource.
func (r *Resource) UsedByOther(wf string) bool {
	for w := range r.Users {
		if w != wf {
			return true
		}
	}
	return false
}

// CleanupState tracks a Cleanup fact through its lifecycle.
type CleanupState int

const (
	// CleanupSubmitted is a freshly inserted cleanup request.
	CleanupSubmitted CleanupState = iota
	// CleanupRemoved marks a request suppressed (duplicate or file in use).
	CleanupRemoved
	// CleanupAdvised means the cleanup was approved for execution.
	CleanupAdvised
	// CleanupInProgress means the client is executing the deletion.
	CleanupInProgress
)

// String implements fmt.Stringer.
func (s CleanupState) String() string {
	switch s {
	case CleanupSubmitted:
		return "submitted"
	case CleanupRemoved:
		return "removed"
	case CleanupAdvised:
		return "advised"
	case CleanupInProgress:
		return "in-progress"
	default:
		return fmt.Sprintf("CleanupState(%d)", int(s))
	}
}

// Cleanup is the working-memory fact for one file-deletion request, and
// its own StateDump entry.
type Cleanup struct {
	// ID is the service-assigned unique cleanup ID.
	ID string `json:"id" xml:"id"`
	// RequestID is the caller-supplied identifier.
	RequestID string `json:"requestId,omitempty" xml:"requestId,omitempty"`
	// WorkflowID identifies the requesting workflow.
	WorkflowID string `json:"workflowId,omitempty" xml:"workflowId,omitempty"`
	// FileURL is the staged file to delete (a Resource DestURL).
	FileURL string `json:"fileUrl" xml:"fileUrl"`
	// State is the lifecycle state.
	State CleanupState `json:"state" xml:"state"`
	// Reason explains a CleanupRemoved state.
	Reason string `json:"reason,omitempty" xml:"reason,omitempty"`
}

// Threshold is the configuration fact holding the maximum number of
// parallel streams allowed between a host pair (greedy algorithm input,
// provided by the site or VO administrator).
type Threshold struct {
	Pair
	Max int `json:"max" xml:"max"`
}

// ClusterThreshold is the per-cluster stream budget between a host pair
// used by the balanced allocation algorithm: the pair threshold divided
// evenly among the workflow's transfer clusters.
type ClusterThreshold struct {
	Pair
	Max int `json:"max" xml:"max"`
}

// Group is the fact recording the group ID generated for a host pair
// (paper: "Generate a unique group ID for a source and destination host
// pair").
type Group struct {
	Pair
	ID string `json:"id" xml:"id"`
}

// StreamLedger records the number of parallel streams currently allocated
// to in-flight transfers between a host pair ("Record the number of
// parallel streams used by a transfer against the defined threshold").
type StreamLedger struct {
	Pair
	Allocated int `json:"allocated" xml:"allocated"`
}

// ClusterLedger records streams allocated per (host pair, cluster) for the
// balanced algorithm.
type ClusterLedger struct {
	Pair
	ClusterID string `json:"clusterId" xml:"clusterId"`
	Allocated int    `json:"allocated" xml:"allocated"`
}

// TransferResult is the event fact a client reports when a transfer it was
// executing finishes ("Remove a transfer that has completed / failed").
type TransferResult struct {
	TransferID string
	Failed     bool
}

// CleanupResult is the event fact reported when a cleanup finishes.
type CleanupResult struct {
	CleanupID string
}
