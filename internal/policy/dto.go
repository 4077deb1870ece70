package policy

import (
	"net/url"
	"strings"
)

// TransferSpec is one requested transfer as submitted by a client. It is
// the wire type for transfer-advice requests (JSON and XML).
type TransferSpec struct {
	RequestID        string `json:"requestId" xml:"requestId"`
	WorkflowID       string `json:"workflowId" xml:"workflowId"`
	JobID            string `json:"jobId,omitempty" xml:"jobId,omitempty"`
	ClusterID        string `json:"clusterId,omitempty" xml:"clusterId,omitempty"`
	SourceURL        string `json:"sourceUrl" xml:"sourceUrl"`
	DestURL          string `json:"destUrl" xml:"destUrl"`
	SizeBytes        int64  `json:"sizeBytes,omitempty" xml:"sizeBytes,omitempty"`
	RequestedStreams int    `json:"requestedStreams,omitempty" xml:"requestedStreams,omitempty"`
	Priority         int    `json:"priority,omitempty" xml:"priority,omitempty"`
}

// AdvisedTransfer is one entry of the modified transfer list returned to
// the client: the transfer it should execute, with policy-assigned ID,
// group, stream count and ordering.
type AdvisedTransfer struct {
	ID               string `json:"id" xml:"id"`
	RequestID        string `json:"requestId" xml:"requestId"`
	WorkflowID       string `json:"workflowId" xml:"workflowId"`
	JobID            string `json:"jobId,omitempty" xml:"jobId,omitempty"`
	ClusterID        string `json:"clusterId,omitempty" xml:"clusterId,omitempty"`
	SourceURL        string `json:"sourceUrl" xml:"sourceUrl"`
	DestURL          string `json:"destUrl" xml:"destUrl"`
	SourceHost       string `json:"sourceHost" xml:"sourceHost"`
	DestHost         string `json:"destHost" xml:"destHost"`
	SizeBytes        int64  `json:"sizeBytes,omitempty" xml:"sizeBytes,omitempty"`
	Streams          int    `json:"streams" xml:"streams"`
	GroupID          string `json:"groupId" xml:"groupId"`
	Priority         int    `json:"priority,omitempty" xml:"priority,omitempty"`
	RequestedStreams int    `json:"requestedStreams,omitempty" xml:"requestedStreams,omitempty"`
}

// RemovedTransfer reports a request the policy service removed from the
// list, with the reason (duplicate in batch, already in progress, already
// staged).
type RemovedTransfer struct {
	RequestID string `json:"requestId" xml:"requestId"`
	SourceURL string `json:"sourceUrl" xml:"sourceUrl"`
	DestURL   string `json:"destUrl" xml:"destUrl"`
	Reason    string `json:"reason" xml:"reason"`
}

// TransferAdvice is the policy service's response to a transfer list.
type TransferAdvice struct {
	// Transfers is the modified list, in execution order.
	Transfers []AdvisedTransfer `json:"transfers" xml:"transfers>transfer"`
	// Removed lists suppressed requests.
	Removed []RemovedTransfer `json:"removed,omitempty" xml:"removed>transfer,omitempty"`
}

// CleanupSpec is one requested file deletion.
type CleanupSpec struct {
	RequestID  string `json:"requestId" xml:"requestId"`
	WorkflowID string `json:"workflowId" xml:"workflowId"`
	FileURL    string `json:"fileUrl" xml:"fileUrl"`
}

// AdvisedCleanup is one approved cleanup operation.
type AdvisedCleanup struct {
	ID         string `json:"id" xml:"id"`
	RequestID  string `json:"requestId" xml:"requestId"`
	WorkflowID string `json:"workflowId" xml:"workflowId"`
	FileURL    string `json:"fileUrl" xml:"fileUrl"`
}

// RemovedCleanup reports a suppressed cleanup and why.
type RemovedCleanup struct {
	RequestID string `json:"requestId" xml:"requestId"`
	FileURL   string `json:"fileUrl" xml:"fileUrl"`
	Reason    string `json:"reason" xml:"reason"`
}

// CleanupAdvice is the policy service's response to a cleanup list.
type CleanupAdvice struct {
	Cleanups []AdvisedCleanup `json:"cleanups" xml:"cleanups>cleanup"`
	Removed  []RemovedCleanup `json:"removed,omitempty" xml:"removed>cleanup,omitempty"`
}

// TransferTiming reports how long one completed transfer took; optional
// in a CompletionReport, it fills the Seconds of the transfer's
// completion event in the lifecycle trace.
type TransferTiming struct {
	TransferID string  `json:"transferId" xml:"transferId"`
	Seconds    float64 `json:"seconds" xml:"seconds"`
}

// CompletionReport is the wire type for reporting finished transfers.
type CompletionReport struct {
	// TransferIDs lists transfers that completed successfully.
	TransferIDs []string `json:"transferIds,omitempty" xml:"transferIds>id,omitempty"`
	// FailedIDs lists transfers that failed.
	FailedIDs []string `json:"failedIds,omitempty" xml:"failedIds>id,omitempty"`
	// Timings optionally carries per-transfer durations for the
	// successfully completed transfers; they reach only the lifecycle
	// trace, never Policy Memory.
	Timings []TransferTiming `json:"timings,omitempty" xml:"timings>timing,omitempty"`
}

// CleanupReport is the wire type for reporting finished cleanups.
type CleanupReport struct {
	CleanupIDs []string `json:"cleanupIds" xml:"cleanupIds>id"`
}

// ReportAck acknowledges a completion report. Matched counts reported IDs
// that corresponded to in-progress entries in Policy Memory; Unmatched
// counts IDs that matched nothing — a nonzero value means client and
// service have drifted (e.g. the entry was reclaimed after the client's
// lease expired, or the report was replayed).
type ReportAck struct {
	Matched   int `json:"matched" xml:"matched"`
	Unmatched int `json:"unmatched" xml:"unmatched"`
}

// PairState is the externally visible stream accounting for one host pair.
type PairState struct {
	SourceHost string `json:"sourceHost" xml:"sourceHost"`
	DestHost   string `json:"destHost" xml:"destHost"`
	Threshold  int    `json:"threshold" xml:"threshold"`
	Allocated  int    `json:"allocated" xml:"allocated"`
	InFlight   int    `json:"inFlight" xml:"inFlight"`
}

// Snapshot is the externally visible state of the policy service.
type Snapshot struct {
	Algorithm      string `json:"algorithm" xml:"algorithm"`
	DefaultStreams int    `json:"defaultStreams" xml:"defaultStreams"`
	// Bundle is the active policy bundle version.
	Bundle          string      `json:"bundle,omitempty" xml:"bundle,omitempty"`
	InFlight        int         `json:"inFlight" xml:"inFlight"`
	StagedResources int         `json:"stagedResources" xml:"stagedResources"`
	TrackedFiles    int         `json:"trackedFiles" xml:"trackedFiles"`
	PendingCleanups int         `json:"pendingCleanups" xml:"pendingCleanups"`
	Pairs           []PairState `json:"pairs" xml:"pairs>pair"`
}

// HostOf extracts the host (without port) from a URL string; it falls back
// to the whole string when the URL does not parse or has no host, so that
// opaque identifiers still form usable host pairs.
func HostOf(raw string) string {
	u, err := url.Parse(raw)
	if err == nil {
		if h := u.Hostname(); h != "" {
			return h
		}
	}
	// Fall back: strip a scheme prefix if present, take the first segment.
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/:"); i >= 0 {
		s = s[:i]
	}
	if s == "" {
		return raw
	}
	return s
}

// PairOf derives the host pair of a (source URL, destination URL) pair.
func PairOf(srcURL, dstURL string) HostPair {
	return HostPair{Src: HostOf(srcURL), Dst: HostOf(dstURL)}
}
