package policy

import (
	"policyflow/internal/bundle"
	"policyflow/internal/canon"
)

// The canonical decoders of the op payloads and of StateDump (see package
// canon): one function per logged request type, each reading the fields
// its json tags name. A payload they do not accept is decoded by
// encoding/json instead, so a field added to a type but not here costs
// speed, never meaning; FuzzCanonicalDecode checks both agree.

// decodeJSON is the payload decoder of every op whose WAL record is the
// plain JSON form of its request type.
func decodeJSON[P any](fast func(*canon.Decoder, *P)) func([]byte) (P, error) {
	return func(payload []byte) (p P, err error) {
		err = canon.Unmarshal(payload, &p, fast)
		return p, err
	}
}

// object adapts a field table to decodeJSON.
func object[T any](fields []canon.Field[T]) func(*canon.Decoder, *T) {
	return func(d *canon.Decoder, v *T) { canon.Object(d, v, fields) }
}

// list adapts a field table of the element type to decodeJSON.
func list[T any](fields []canon.Field[T]) func(*canon.Decoder, *[]T) {
	return func(d *canon.Decoder, v *[]T) { *v = canon.Objects(d, fields) }
}

var transferSpecFields = []canon.Field[TransferSpec]{
	{Name: "requestId", Decode: func(d *canon.Decoder, v *TransferSpec) { v.RequestID = d.String() }},
	{Name: "workflowId", Decode: func(d *canon.Decoder, v *TransferSpec) { v.WorkflowID = d.String() }},
	{Name: "jobId", Decode: func(d *canon.Decoder, v *TransferSpec) { v.JobID = d.String() }},
	{Name: "clusterId", Decode: func(d *canon.Decoder, v *TransferSpec) { v.ClusterID = d.String() }},
	{Name: "sourceUrl", Decode: func(d *canon.Decoder, v *TransferSpec) { v.SourceURL = d.String() }},
	{Name: "destUrl", Decode: func(d *canon.Decoder, v *TransferSpec) { v.DestURL = d.String() }},
	{Name: "sizeBytes", Decode: func(d *canon.Decoder, v *TransferSpec) { v.SizeBytes = d.Int64() }},
	{Name: "requestedStreams", Decode: func(d *canon.Decoder, v *TransferSpec) { v.RequestedStreams = d.Int() }},
	{Name: "priority", Decode: func(d *canon.Decoder, v *TransferSpec) { v.Priority = d.Int() }},
}

var transferTimingFields = []canon.Field[TransferTiming]{
	{Name: "transferId", Decode: func(d *canon.Decoder, v *TransferTiming) { v.TransferID = d.String() }},
	{Name: "seconds", Decode: func(d *canon.Decoder, v *TransferTiming) { v.Seconds = d.Float64() }},
}

var completionReportFields = []canon.Field[CompletionReport]{
	{Name: "transferIds", Decode: func(d *canon.Decoder, v *CompletionReport) { v.TransferIDs = canon.Strings(d) }},
	{Name: "failedIds", Decode: func(d *canon.Decoder, v *CompletionReport) { v.FailedIDs = canon.Strings(d) }},
	{Name: "timings", Decode: func(d *canon.Decoder, v *CompletionReport) {
		v.Timings = canon.Objects(d, transferTimingFields)
	}},
}

var cleanupSpecFields = []canon.Field[CleanupSpec]{
	{Name: "requestId", Decode: func(d *canon.Decoder, v *CleanupSpec) { v.RequestID = d.String() }},
	{Name: "workflowId", Decode: func(d *canon.Decoder, v *CleanupSpec) { v.WorkflowID = d.String() }},
	{Name: "fileUrl", Decode: func(d *canon.Decoder, v *CleanupSpec) { v.FileURL = d.String() }},
}

var cleanupReportFields = []canon.Field[CleanupReport]{
	{Name: "cleanupIds", Decode: func(d *canon.Decoder, v *CleanupReport) { v.CleanupIDs = canon.Strings(d) }},
}

var thresholdOpFields = []canon.Field[ThresholdOp]{
	{Name: "sourceHost", Decode: func(d *canon.Decoder, v *ThresholdOp) { v.SourceHost = d.String() }},
	{Name: "destHost", Decode: func(d *canon.Decoder, v *ThresholdOp) { v.DestHost = d.String() }},
	{Name: "max", Decode: func(d *canon.Decoder, v *ThresholdOp) { v.Max = d.Int() }},
}

var leaseOpFields = []canon.Field[LeaseOp]{
	{Name: "workflowId", Decode: func(d *canon.Decoder, v *LeaseOp) { v.WorkflowID = d.String() }},
}

var clockOpFields = []canon.Field[ClockOp]{
	{Name: "now", Decode: func(d *canon.Decoder, v *ClockOp) { v.Now = d.Float64() }},
}

var epochOpFields = []canon.Field[EpochOp]{
	{Name: "epoch", Decode: func(d *canon.Decoder, v *EpochOp) { v.Epoch = d.Uint64() }},
}

var bundleOpFields = []canon.Field[BundleOp]{
	{Name: "bundle", Decode: func(d *canon.Decoder, v *BundleOp) { v.Bundle = canon.Ptr(d, bundleFields) }},
}

var pairThresholdFields = []canon.Field[bundle.PairThreshold]{
	{Name: "sourceHost", Decode: func(d *canon.Decoder, v *bundle.PairThreshold) { v.SourceHost = d.String() }},
	{Name: "destHost", Decode: func(d *canon.Decoder, v *bundle.PairThreshold) { v.DestHost = d.String() }},
	{Name: "max", Decode: func(d *canon.Decoder, v *bundle.PairThreshold) { v.Max = d.Int() }},
}

var priorityFields = []canon.Field[bundle.Priority]{
	{Name: "boostFactor", Decode: func(d *canon.Decoder, v *bundle.Priority) { v.BoostFactor = d.Float64() }},
	{Name: "reduceFactor", Decode: func(d *canon.Decoder, v *bundle.Priority) { v.ReduceFactor = d.Float64() }},
}

var bundleFields = []canon.Field[bundle.Bundle]{
	{Name: "schemaVersion", Decode: func(d *canon.Decoder, v *bundle.Bundle) { v.SchemaVersion = d.Int() }},
	{Name: "version", Decode: func(d *canon.Decoder, v *bundle.Bundle) { v.Version = d.String() }},
	{Name: "description", Decode: func(d *canon.Decoder, v *bundle.Bundle) { v.Description = d.String() }},
	{Name: "algorithm", Decode: func(d *canon.Decoder, v *bundle.Bundle) { v.Algorithm = d.String() }},
	{Name: "defaultStreams", Decode: func(d *canon.Decoder, v *bundle.Bundle) { v.DefaultStreams = d.Int() }},
	{Name: "minStreams", Decode: func(d *canon.Decoder, v *bundle.Bundle) { v.MinStreams = d.Int() }},
	{Name: "defaultThreshold", Decode: func(d *canon.Decoder, v *bundle.Bundle) { v.DefaultThreshold = d.Int() }},
	{Name: "clusterFactor", Decode: func(d *canon.Decoder, v *bundle.Bundle) { v.ClusterFactor = d.Int() }},
	{Name: "pairThresholds", Decode: func(d *canon.Decoder, v *bundle.Bundle) {
		v.PairThresholds = canon.Objects(d, pairThresholdFields)
	}},
	{Name: "priority", Decode: func(d *canon.Decoder, v *bundle.Bundle) { v.Priority = canon.Ptr(d, priorityFields) }},
}

var bundleStateFields = []canon.Field[BundleStateDump]{
	{Name: "active", Decode: func(d *canon.Decoder, v *BundleStateDump) { v.Active = canon.Ptr(d, bundleFields) }},
	{Name: "previous", Decode: func(d *canon.Decoder, v *BundleStateDump) { v.Previous = canon.Ptr(d, bundleFields) }},
}

var transferFields = []canon.Field[Transfer]{
	{Name: "id", Decode: func(d *canon.Decoder, v *Transfer) { v.ID = d.String() }},
	{Name: "requestId", Decode: func(d *canon.Decoder, v *Transfer) { v.RequestID = d.String() }},
	{Name: "workflowId", Decode: func(d *canon.Decoder, v *Transfer) { v.WorkflowID = d.String() }},
	{Name: "jobId", Decode: func(d *canon.Decoder, v *Transfer) { v.JobID = d.String() }},
	{Name: "clusterId", Decode: func(d *canon.Decoder, v *Transfer) { v.ClusterID = d.String() }},
	{Name: "sourceUrl", Decode: func(d *canon.Decoder, v *Transfer) { v.SourceURL = d.String() }},
	{Name: "destUrl", Decode: func(d *canon.Decoder, v *Transfer) { v.DestURL = d.String() }},
	{Name: "sizeBytes", Decode: func(d *canon.Decoder, v *Transfer) { v.SizeBytes = d.Int64() }},
	{Name: "requestedStreams", Decode: func(d *canon.Decoder, v *Transfer) { v.RequestedStreams = d.Int() }},
	{Name: "allocatedStreams", Decode: func(d *canon.Decoder, v *Transfer) { v.AllocatedStreams = d.Int() }},
	{Name: "groupId", Decode: func(d *canon.Decoder, v *Transfer) { v.GroupID = d.String() }},
	{Name: "priority", Decode: func(d *canon.Decoder, v *Transfer) { v.Priority = d.Int() }},
	{Name: "state", Decode: func(d *canon.Decoder, v *Transfer) { v.State = TransferState(d.Int()) }},
}

var userCountFields = []canon.Field[UserCount]{
	{Name: "workflowId", Decode: func(d *canon.Decoder, v *UserCount) { v.WorkflowID = d.String() }},
	{Name: "count", Decode: func(d *canon.Decoder, v *UserCount) { v.Count = d.Int() }},
}

var resourceFields = []canon.Field[ResourceDump]{
	{Name: "destUrl", Decode: func(d *canon.Decoder, v *ResourceDump) { v.DestURL = d.String() }},
	{Name: "sourceUrl", Decode: func(d *canon.Decoder, v *ResourceDump) { v.SourceURL = d.String() }},
	{Name: "staged", Decode: func(d *canon.Decoder, v *ResourceDump) { v.Staged = d.Bool() }},
	{Name: "users", Decode: func(d *canon.Decoder, v *ResourceDump) { v.Users = canon.Objects(d, userCountFields) }},
}

var cleanupFields = []canon.Field[Cleanup]{
	{Name: "id", Decode: func(d *canon.Decoder, v *Cleanup) { v.ID = d.String() }},
	{Name: "requestId", Decode: func(d *canon.Decoder, v *Cleanup) { v.RequestID = d.String() }},
	{Name: "workflowId", Decode: func(d *canon.Decoder, v *Cleanup) { v.WorkflowID = d.String() }},
	{Name: "fileUrl", Decode: func(d *canon.Decoder, v *Cleanup) { v.FileURL = d.String() }},
	{Name: "state", Decode: func(d *canon.Decoder, v *Cleanup) { v.State = CleanupState(d.Int()) }},
	{Name: "reason", Decode: func(d *canon.Decoder, v *Cleanup) { v.Reason = d.String() }},
}

// pairFields are the src and dst members every per-pair fact embeds.
func pairFields[T any](pair func(*T) *HostPair, rest ...canon.Field[T]) []canon.Field[T] {
	return append([]canon.Field[T]{
		{Name: "src", Decode: func(d *canon.Decoder, v *T) { pair(v).Src = d.String() }},
		{Name: "dst", Decode: func(d *canon.Decoder, v *T) { pair(v).Dst = d.String() }},
	}, rest...)
}

var thresholdFields = pairFields(func(v *Threshold) *HostPair { return &v.Pair },
	canon.Field[Threshold]{Name: "max", Decode: func(d *canon.Decoder, v *Threshold) { v.Max = d.Int() }})

var clusterThresholdFields = pairFields(func(v *ClusterThreshold) *HostPair { return &v.Pair },
	canon.Field[ClusterThreshold]{Name: "max", Decode: func(d *canon.Decoder, v *ClusterThreshold) { v.Max = d.Int() }})

var groupFields = pairFields(func(v *Group) *HostPair { return &v.Pair },
	canon.Field[Group]{Name: "id", Decode: func(d *canon.Decoder, v *Group) { v.ID = d.String() }})

var ledgerFields = pairFields(func(v *StreamLedger) *HostPair { return &v.Pair },
	canon.Field[StreamLedger]{Name: "allocated", Decode: func(d *canon.Decoder, v *StreamLedger) { v.Allocated = d.Int() }})

var clusterLedgerFields = pairFields(func(v *ClusterLedger) *HostPair { return &v.Pair },
	canon.Field[ClusterLedger]{Name: "clusterId", Decode: func(d *canon.Decoder, v *ClusterLedger) { v.ClusterID = d.String() }},
	canon.Field[ClusterLedger]{Name: "allocated", Decode: func(d *canon.Decoder, v *ClusterLedger) { v.Allocated = d.Int() }})

var leaseFields = []canon.Field[Lease]{
	{Name: "owner", Decode: func(d *canon.Decoder, v *Lease) { v.Owner = d.String() }},
	{Name: "deadline", Decode: func(d *canon.Decoder, v *Lease) { v.Deadline = d.Float64() }},
}

var stateDumpFields = []canon.Field[StateDump]{
	{Name: "nextTransfer", Decode: func(d *canon.Decoder, v *StateDump) { v.NextTransfer = d.Int() }},
	{Name: "nextGroup", Decode: func(d *canon.Decoder, v *StateDump) { v.NextGroup = d.Int() }},
	{Name: "nextCleanup", Decode: func(d *canon.Decoder, v *StateDump) { v.NextCleanup = d.Int() }},
	{Name: "advised", Decode: func(d *canon.Decoder, v *StateDump) { v.Advised = d.Int() }},
	{Name: "suppressed", Decode: func(d *canon.Decoder, v *StateDump) { v.Suppressed = d.Int() }},
	{Name: "clock", Decode: func(d *canon.Decoder, v *StateDump) { v.Clock = d.Float64() }},
	{Name: "epoch", Decode: func(d *canon.Decoder, v *StateDump) { v.Epoch = d.Uint64() }},
	{Name: "bundleState", Decode: func(d *canon.Decoder, v *StateDump) { v.Bundle = canon.Ptr(d, bundleStateFields) }},
	{Name: "transfers", Decode: func(d *canon.Decoder, v *StateDump) { v.Transfers = canon.Objects(d, transferFields) }},
	{Name: "resources", Decode: func(d *canon.Decoder, v *StateDump) { v.Resources = canon.Objects(d, resourceFields) }},
	{Name: "cleanups", Decode: func(d *canon.Decoder, v *StateDump) { v.Cleanups = canon.Objects(d, cleanupFields) }},
	{Name: "thresholds", Decode: func(d *canon.Decoder, v *StateDump) { v.Thresholds = canon.Objects(d, thresholdFields) }},
	{Name: "clusterThresholds", Decode: func(d *canon.Decoder, v *StateDump) {
		v.ClusterThresholds = canon.Objects(d, clusterThresholdFields)
	}},
	{Name: "groups", Decode: func(d *canon.Decoder, v *StateDump) { v.Groups = canon.Objects(d, groupFields) }},
	{Name: "ledgers", Decode: func(d *canon.Decoder, v *StateDump) { v.Ledgers = canon.Objects(d, ledgerFields) }},
	{Name: "clusterLedgers", Decode: func(d *canon.Decoder, v *StateDump) {
		v.ClusterLedgers = canon.Objects(d, clusterLedgerFields)
	}},
	{Name: "leases", Decode: func(d *canon.Decoder, v *StateDump) { v.Leases = canon.Objects(d, leaseFields) }},
}

// decodeStateDumpPtr is the canonical decoder of an import_state payload.
func decodeStateDumpPtr(d *canon.Decoder, v **StateDump) { *v = canon.Ptr(d, stateDumpFields) }

// decodeBundleOpJSON decodes an activate_bundle record (see decodeBundleOp).
var decodeBundleOpJSON = decodeJSON(object(bundleOpFields))
