// Package policyhttp exposes the policy service over a RESTful web
// interface, playing the role of the paper's Policy Controller and RESTful
// Web Interface (hosted on Apache Tomcat in the original system). Requests
// and responses are XML or JSON data structures; the wire format is chosen
// per request via the Content-Type and Accept headers.
//
// Endpoints (all under /v1):
//
//	POST /v1/transfers            submit a transfer list, receive advice
//	POST /v1/transfers/completed  report completed/failed transfers
//	POST /v1/cleanups             submit a cleanup list, receive advice
//	POST /v1/cleanups/completed   report completed cleanups
//	GET  /v1/state                observe stream ledgers and resources
//	PUT  /v1/thresholds           set a host-pair stream threshold
//	POST /v1/leases/renew         renew a workflow's liveness lease
//	GET  /v1/leases               list active leases and their holdings
//	POST /v1/clock/advance        advance the logical clock (expires leases)
//	GET  /v1/decisions            recent decision provenance records
//	GET  /v1/healthz              liveness probe
//
// Servers attached to a durable store (SetDurable) additionally serve
// POST /v1/state/snapshot and GET /v1/state/archive, the snapshot+tail a
// standby pulls to stay warm.
package policyhttp

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"policyflow/internal/admit"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// maxBodyBytes bounds request bodies; a transfer list for even a very
// large workflow is far below this.
const maxBodyBytes = 16 << 20

// TransferRequest is the wire envelope for a transfer-advice request.
type TransferRequest struct {
	XMLName   xml.Name              `xml:"transferRequest" json:"-"`
	Transfers []policy.TransferSpec `json:"transfers" xml:"transfers>transfer"`
}

// CleanupRequest is the wire envelope for a cleanup-advice request.
type CleanupRequest struct {
	XMLName  xml.Name             `xml:"cleanupRequest" json:"-"`
	Cleanups []policy.CleanupSpec `json:"cleanups" xml:"cleanups>cleanup"`
}

// TransferAdviceDoc wraps policy.TransferAdvice for XML round-trips.
type TransferAdviceDoc struct {
	XMLName xml.Name `xml:"transferAdvice" json:"-"`
	policy.TransferAdvice
}

// CleanupAdviceDoc wraps policy.CleanupAdvice for XML round-trips.
type CleanupAdviceDoc struct {
	XMLName xml.Name `xml:"cleanupAdvice" json:"-"`
	policy.CleanupAdvice
}

// CompletionDoc wraps policy.CompletionReport for XML round-trips.
type CompletionDoc struct {
	XMLName xml.Name `xml:"completionReport" json:"-"`
	policy.CompletionReport
}

// CleanupReportDoc wraps policy.CleanupReport for XML round-trips.
type CleanupReportDoc struct {
	XMLName xml.Name `xml:"cleanupReport" json:"-"`
	policy.CleanupReport
}

// SnapshotDoc wraps policy.Snapshot for XML round-trips.
type SnapshotDoc struct {
	XMLName xml.Name `xml:"state" json:"-"`
	policy.Snapshot
}

// ReportAckDoc wraps policy.ReportAck for XML round-trips.
type ReportAckDoc struct {
	XMLName xml.Name `xml:"reportAck" json:"-"`
	policy.ReportAck
}

// LeaseRenewal is the wire type for POST /v1/leases/renew.
type LeaseRenewal struct {
	XMLName xml.Name `xml:"leaseRenewal" json:"-"`
	policy.LeaseOp
}

// LeaseStatusDoc wraps policy.LeaseStatus for XML round-trips.
type LeaseStatusDoc struct {
	XMLName xml.Name `xml:"lease" json:"-"`
	policy.LeaseStatus
}

// LeaseListDoc wraps policy.LeaseList for XML round-trips.
type LeaseListDoc struct {
	XMLName xml.Name `xml:"leases" json:"-"`
	policy.LeaseList
}

// ClockUpdate is the wire type for POST /v1/clock/advance.
type ClockUpdate struct {
	XMLName xml.Name `xml:"clock" json:"-"`
	policy.ClockOp
}

// ClockAdvanceDoc wraps policy.ClockAdvance for XML round-trips.
type ClockAdvanceDoc struct {
	XMLName xml.Name `xml:"clockAdvance" json:"-"`
	policy.ClockAdvance
}

// ThresholdUpdate is the wire type for PUT /v1/thresholds.
type ThresholdUpdate struct {
	XMLName xml.Name `xml:"threshold" json:"-"`
	policy.ThresholdOp
}

// ErrorDoc is the error response body.
type ErrorDoc struct {
	XMLName xml.Name `xml:"error" json:"-"`
	Message string   `json:"error" xml:"message"`
}

// Server adapts a policy.Service to HTTP. It implements http.Handler.
type Server struct {
	svc *policy.Service
	mux *http.ServeMux
	log *log.Logger

	// tracer receives http.server spans; requests carrying a Traceparent
	// header join the caller's trace even when tracer is nil.
	tracer obs.Tracer

	// durable, when set via SetDurable, backs the snapshot and archive
	// endpoints.
	durable DurableStore

	reg      *obs.Registry
	httpReqs *obs.CounterVec   // http_requests_total{endpoint,code}
	httpLat  *obs.HistogramVec // http_request_seconds{endpoint}

	// idem caches responses to mutating requests by idempotency key, so a
	// client retry after a lost response does not re-apply the mutation.
	idem        *idemCache
	idemReplays *obs.Counter // http_idempotent_replays_total

	// admit, when set via SetAdmission, bounds and batches the traffic:
	// advise/report mutations coalesce through its queue, reads take a
	// concurrency slot, and overload is shed before any side effect.
	admit *admit.Controller

	// Failover state (see failover.go). role is RoleNone unless
	// SetFailover assigned one; syncer pulls from the other half of the
	// pair (nil without one). promoteMu serializes promotions so
	// concurrent triggers cannot race the demote-then-catch-up protocol.
	roleMu    sync.Mutex
	role      Role
	syncer    *StandbySyncer
	promoteMu sync.Mutex

	// state gauges, refreshed from the service snapshot at scrape time.
	inFlight    *obs.Gauge
	stagedFiles *obs.Gauge
	tracked     *obs.Gauge
	pendClean   *obs.Gauge
	streamsVec  *obs.GaugeVec
}

// NewServer wraps svc with a fresh metrics registry and no tracer. logger
// may be nil to disable request logging.
func NewServer(svc *policy.Service, logger *log.Logger) *Server {
	return NewServerWith(svc, logger, obs.NewRegistry(), nil)
}

// NewServerWith wraps svc using the caller's registry and tracer (tracer
// may be nil). The service is instrumented with both, so every policy
// decision lands in reg and, when a tracer is given, in the event log; the
// registry is what GET /v1/metrics renders.
func NewServerWith(svc *policy.Service, logger *log.Logger, reg *obs.Registry, tracer obs.Tracer) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), log: logger, reg: reg, tracer: tracer}
	svc.Instrument(reg, tracer)
	s.httpReqs = reg.Counter("http_requests_total",
		"HTTP requests served, by route pattern and status code.", "endpoint", "code")
	s.httpLat = reg.Histogram("http_request_seconds",
		"HTTP request latency by route pattern.", nil, "endpoint")
	s.inFlight = reg.Gauge("policy_transfers_in_flight",
		"In-progress transfers.").With()
	s.stagedFiles = reg.Gauge("policy_staged_files",
		"Staged files tracked in Policy Memory.").With()
	s.tracked = reg.Gauge("policy_tracked_files",
		"File resources tracked in Policy Memory (staged or pending).").With()
	s.pendClean = reg.Gauge("policy_pending_cleanups",
		"Cleanup operations in progress.").With()
	s.streamsVec = reg.Gauge("policy_streams_allocated",
		"Parallel streams currently allocated per host pair.", "src", "dst")
	s.idem = newIdemCache(0)
	s.idemReplays = reg.Counter("http_idempotent_replays_total",
		"Mutating requests answered from the idempotency cache without re-applying.").With()
	for op, rt := range routes {
		s.mux.HandleFunc(rt.method+" "+rt.path, s.mutation(op, rt))
	}
	// Read-only endpoints go through the admission controller's read
	// gate (a pass-through until SetAdmission). The replication plane
	// (archive, promote/demote) stays ungated and unfenced: it is how a
	// standby catches up and how leadership moves, and recovery must not
	// compete with the overload that may have caused the outage.
	// Metrics and health stay ungated for the same reason — observability
	// is most valuable during overload.
	s.mux.HandleFunc("GET /v1/state", s.admitRead(s.handleState))
	s.mux.HandleFunc("GET /v1/state/dump", s.admitRead(s.handleDump))
	s.mux.HandleFunc("POST /v1/state/snapshot", s.idempotent(s.handleSnapshot))
	s.mux.HandleFunc("GET /v1/state/archive", s.handleArchive)
	s.mux.HandleFunc("PUT /v1/bundles", s.fenced(s.idempotent(s.handleBundlePush)))
	s.mux.HandleFunc("GET /v1/bundles", s.admitRead(s.handleBundles))
	s.mux.HandleFunc("GET /v1/leases", s.admitRead(s.handleLeases))
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("POST /v1/demote", s.handleDemote)
	s.mux.HandleFunc("GET /v1/epoch", s.handleEpochGet)
	s.mux.HandleFunc("GET /v1/config", s.admitRead(s.handleConfig))
	s.mux.HandleFunc("GET /v1/decisions", s.admitRead(s.handleDecisions))
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return s
}

// ConfigDoc is the wire form of the effective service configuration —
// the tunables of the active policy bundle, stamped with its version.
type ConfigDoc struct {
	XMLName          xml.Name `json:"-" xml:"config"`
	Bundle           string   `json:"bundle" xml:"bundle"`
	Algorithm        string   `json:"algorithm" xml:"algorithm"`
	DefaultStreams   int      `json:"defaultStreams" xml:"defaultStreams"`
	MinStreams       int      `json:"minStreams" xml:"minStreams"`
	DefaultThreshold int      `json:"defaultThreshold" xml:"defaultThreshold"`
	ClusterFactor    int      `json:"clusterFactor" xml:"clusterFactor"`
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	tun := s.svc.Tunables()
	s.writeResponse(w, resf, http.StatusOK, &ConfigDoc{
		Bundle:           tun.Version,
		Algorithm:        string(tun.Algorithm),
		DefaultStreams:   tun.DefaultStreams,
		MinStreams:       tun.MinStreams,
		DefaultThreshold: tun.DefaultThreshold,
		ClusterFactor:    tun.ClusterFactor,
	})
}

// Registry returns the server's metrics registry, for callers that mount
// additional endpoints over it (cmd/policyserver's /debug/vars).
func (s *Server) Registry() *obs.Registry { return s.reg }

// DecisionListDoc wraps the decision records returned by /v1/decisions.
type DecisionListDoc struct {
	XMLName   xml.Name                `xml:"decisions" json:"-"`
	Decisions []policy.DecisionRecord `json:"decisions" xml:"decision"`
}

// MatchesLFN reports whether a decision line's file URL refers to the
// given logical file name: exact match, path-basename match, or suffix.
// The /v1/decisions lfn filter and `policyctl explain` share it.
func MatchesLFN(fileURL, lfn string) bool {
	if lfn == "" || fileURL == lfn {
		return true
	}
	base := fileURL
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return base == lfn || strings.HasSuffix(fileURL, lfn)
}

// handleDecisions serves the decision provenance ring. Query parameters:
// n (max records, newest retained), op (logged op name), bundle (policy
// bundle version that produced the decision), workflow and lfn (keep only
// records with a matching line). This is the endpoint `policyctl explain`
// renders its why-chain from.
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	q := r.URL.Query()
	n := 0
	if v := q.Get("n"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil || n < 0 {
			s.writeError(w, resf, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
	}
	op, workflow, lfn := q.Get("op"), q.Get("workflow"), q.Get("lfn")
	bundleVersion := q.Get("bundle")
	recs := s.svc.Decisions(0)
	out := make([]policy.DecisionRecord, 0, len(recs))
	matches := func(ln policy.DecisionLine) bool {
		return (workflow == "" || ln.WorkflowID == workflow) && MatchesLFN(ln.FileURL, lfn)
	}
	for _, rec := range recs {
		if (op != "" && rec.Op != op) || (bundleVersion != "" && rec.Bundle != bundleVersion) ||
			((workflow != "" || lfn != "") && !slices.ContainsFunc(rec.Lines, matches)) {
			continue
		}
		out = append(out, rec)
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	s.writeResponse(w, resf, http.StatusOK, &DecisionListDoc{Decisions: out})
}

// handleMetrics exposes the full metrics registry in the Prometheus text
// exposition format (no external dependency needed for the text form).
// State-derived gauges are refreshed from the service snapshot at scrape
// time, so the scrape is always consistent with /v1/state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.svc.Snapshot()
	s.inFlight.Set(float64(snap.InFlight))
	s.stagedFiles.Set(float64(snap.StagedResources))
	s.tracked.Set(float64(snap.TrackedFiles))
	s.pendClean.Set(float64(snap.PendingCleanups))
	for _, p := range snap.Pairs {
		s.streamsVec.With(p.SourceHost, p.DestHost).Set(float64(p.Allocated))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil && s.log != nil {
		s.log.Printf("write metrics: %v", err)
	}
}

// statusWriter captures the response status for request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler. Every request is measured into the
// per-endpoint request counter and latency histogram, labeled by the
// matched route pattern so path parameters do not explode the series set.
// Requests carrying a Traceparent header join the caller's causal trace:
// the header's span context is installed in the request context (so the
// policy layer's spans, lifecycle events and decision records carry the
// caller's trace ID), and — when the server has a tracer — an
// http.server span covering the full request is emitted around the
// handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.log != nil {
		s.log.Printf("%s %s", r.Method, r.URL.Path)
	}
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	ctx := r.Context()
	if sc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
		ctx = obs.ContextWithSpan(ctx, sc)
	}
	ctx, span := obs.StartSpan(ctx, s.tracer, "http.server")
	if _, ok := obs.SpanFromContext(ctx); ok {
		r = r.WithContext(ctx)
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.httpReqs.With(pattern, strconv.Itoa(sw.code)).Inc()
	s.httpLat.With(pattern).Observe(time.Since(start).Seconds())
	if span != nil {
		span.Annot.Endpoint = pattern
		span.Annot.Status = sw.code
		span.End()
	}
}

// format identifies a wire encoding.
type format int

const (
	formatJSON format = iota
	formatXML
)

func (f format) contentType() string {
	if f == formatXML {
		return "application/xml; charset=utf-8"
	}
	return "application/json; charset=utf-8"
}

// requestFormat inspects Content-Type; unknown or absent means JSON.
func requestFormat(r *http.Request) (format, error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return formatJSON, nil
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return formatJSON, fmt.Errorf("bad Content-Type %q", ct)
	}
	switch {
	case mt == "application/json" || strings.HasSuffix(mt, "+json"):
		return formatJSON, nil
	case mt == "application/xml" || mt == "text/xml" || strings.HasSuffix(mt, "+xml"):
		return formatXML, nil
	default:
		return formatJSON, fmt.Errorf("unsupported Content-Type %q", mt)
	}
}

// responseFormat inspects Accept; default is the request's own format.
func responseFormat(r *http.Request, def format) format {
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "application/xml"), strings.Contains(accept, "text/xml"):
		return formatXML
	case strings.Contains(accept, "application/json"):
		return formatJSON
	default:
		return def
	}
}

func decode(r *http.Request, f format, v any) error {
	body := io.LimitReader(r.Body, maxBodyBytes)
	switch f {
	case formatXML:
		return xml.NewDecoder(body).Decode(v)
	default:
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
}

func (s *Server) writeResponse(w http.ResponseWriter, f format, status int, v any) {
	w.Header().Set("Content-Type", f.contentType())
	w.WriteHeader(status)
	var err error
	switch f {
	case formatXML:
		if _, werr := io.WriteString(w, xml.Header); werr != nil {
			return
		}
		enc := xml.NewEncoder(w)
		enc.Indent("", "  ")
		err = enc.Encode(v)
	default:
		enc := json.NewEncoder(w)
		err = enc.Encode(v)
	}
	if err != nil && s.log != nil {
		s.log.Printf("encode response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, f format, status int, err error) {
	s.writeResponse(w, f, status, &ErrorDoc{Message: err.Error()})
}

// route binds one logged op to its endpoint. The server and Client.Do
// read the same row: the server decodes the request document into the
// op's payload and wraps the op's result into the reply, the client does
// the reverse, so the two halves cannot drift apart.
type route struct {
	method, path string
	// fenced marks policy-plane routes, refused with 412 unless this
	// server is the primary (see failover.go). The two operator ops —
	// restore (seed a server from a dump) and epoch bump — must work on a
	// standby and stay unfenced.
	fenced bool
	// req carries the op's payload in the request document; reply carries
	// its result in the response. Routes without a reply answer 204 No
	// Content.
	req, reply codec
}

// codec converts between an op's payload or result and its wire document.
type codec interface {
	// doc wraps v in a new document; false when v is not the op's type.
	doc(v any) (any, bool)
	// blank returns a fresh document to decode into.
	blank() any
	// value unwraps a document made by blank or doc.
	value(doc any) any
}

// wire is the codec carrying a V in a *D.
type wire[V, D any] struct {
	wrap   func(V) *D
	unwrap func(*D) V
}

func (w wire[V, D]) doc(v any) (any, bool) {
	t, ok := v.(V)
	if !ok {
		return nil, false
	}
	return w.wrap(t), true
}

func (w wire[V, D]) blank() any      { return new(D) }
func (w wire[V, D]) value(d any) any { return w.unwrap(d.(*D)) }

func wireOf[V, D any](wrap func(V) *D, unwrap func(*D) V) codec { return wire[V, D]{wrap, unwrap} }

// field is the codec of a document that carries the value in the field at
// returns: wrapping fills that field of a fresh document, unwrapping reads
// it.
func field[V, D any](at func(*D) *V) codec {
	return wireOf(func(v V) *D { d := new(D); *at(d) = v; return d }, func(d *D) V { return *at(d) })
}

// embedded is field for a result passed by pointer: unwrapping points into
// the document.
func embedded[V, D any](at func(*D) *V) codec {
	return wireOf(func(v *V) *D { d := new(D); *at(d) = *v; return d }, at)
}

var ackWire = embedded(func(d *ReportAckDoc) *policy.ReportAck { return &d.ReportAck })

// routes is the HTTP face of the policy op table: one row per logged op.
var routes = map[string]route{
	policy.OpAdviseTransfers: {http.MethodPost, "/v1/transfers", true,
		field(func(d *TransferRequest) *[]policy.TransferSpec { return &d.Transfers }),
		embedded(func(d *TransferAdviceDoc) *policy.TransferAdvice { return &d.TransferAdvice })},
	policy.OpReportTransfers: {http.MethodPost, "/v1/transfers/completed", true,
		field(func(d *CompletionDoc) *policy.CompletionReport { return &d.CompletionReport }), ackWire},
	policy.OpAdviseCleanups: {http.MethodPost, "/v1/cleanups", true,
		field(func(d *CleanupRequest) *[]policy.CleanupSpec { return &d.Cleanups }),
		embedded(func(d *CleanupAdviceDoc) *policy.CleanupAdvice { return &d.CleanupAdvice })},
	policy.OpReportCleanups: {http.MethodPost, "/v1/cleanups/completed", true,
		field(func(d *CleanupReportDoc) *policy.CleanupReport { return &d.CleanupReport }), ackWire},
	policy.OpSetThreshold: {http.MethodPut, "/v1/thresholds", true,
		field(func(d *ThresholdUpdate) *policy.ThresholdOp { return &d.ThresholdOp }), nil},
	policy.OpImportState: {http.MethodPost, "/v1/state/restore", false,
		wireOf(self[policy.StateDump], self[policy.StateDump]), nil},
	policy.OpRenewLease: {http.MethodPost, "/v1/leases/renew", true,
		field(func(d *LeaseRenewal) *policy.LeaseOp { return &d.LeaseOp }),
		embedded(func(d *LeaseStatusDoc) *policy.LeaseStatus { return &d.LeaseStatus })},
	policy.OpAdvanceClock: {http.MethodPost, "/v1/clock/advance", true,
		field(func(d *ClockUpdate) *policy.ClockOp { return &d.ClockOp }),
		embedded(func(d *ClockAdvanceDoc) *policy.ClockAdvance { return &d.ClockAdvance })},
	policy.OpActivateBundle: {http.MethodPost, "/v1/bundles/activate", true,
		wireOf(func(v policy.BundleOp) *BundleActivateRequest {
			return &BundleActivateRequest{Version: v.Version, Bundle: v.Doc, Rollback: v.Rollback}
		}, func(d *BundleActivateRequest) policy.BundleOp {
			return policy.BundleOp{Doc: d.Bundle, Version: d.Version, Rollback: d.Rollback}
		}),
		embedded(func(d *BundleInfoDoc) *policy.BundleInfo { return &d.BundleInfo })},
	policy.OpBumpEpoch: {http.MethodPost, "/v1/epoch", false,
		wireOf(func(v policy.EpochOp) *EpochDoc { return &EpochDoc{Epoch: v.Epoch} },
			func(d *EpochDoc) policy.EpochOp { return policy.EpochOp{Epoch: d.Epoch} }),
		field(func(d *EpochDoc) *uint64 { return &d.Epoch })},
}

// mutation is the one handler behind every route: negotiate the wire
// format, decode, submit the op, map the outcome. The idempotency cache
// wraps it, and the epoch fence wraps OUTSIDE that: a 412 must never be
// recorded against a key the client will re-use at the real primary.
func (s *Server) mutation(op string, rt route) http.HandlerFunc {
	h := s.idempotent(func(w http.ResponseWriter, r *http.Request) {
		reqf, err := requestFormat(r)
		resf := responseFormat(r, reqf)
		if err != nil {
			s.writeError(w, resf, http.StatusUnsupportedMediaType, err)
			return
		}
		doc := rt.req.blank()
		if err := decode(r, reqf, doc); err != nil {
			s.writeError(w, resf, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
			return
		}
		result, err := s.submit(r.Context(), op, rt.req.value(doc))
		if err != nil {
			s.writeFailure(w, resf, err)
			return
		}
		if rt.reply == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		reply, _ := rt.reply.doc(result)
		if e, ok := reply.(*EpochDoc); ok {
			e.Role = s.Role().String() // the epoch reply also reports the role
		}
		s.writeResponse(w, resf, http.StatusOK, reply)
	})
	if rt.fenced {
		h = s.fenced(h)
	}
	return h
}

func (s *Server) handleLeases(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	s.writeResponse(w, resf, http.StatusOK, &LeaseListDoc{LeaseList: *s.svc.Leases()})
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	s.writeResponse(w, resf, http.StatusOK, &SnapshotDoc{Snapshot: s.svc.Snapshot()})
}

func (s *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	s.writeResponse(w, resf, http.StatusOK, s.svc.ExportState())
}

// BundleInfoDoc is the wire form of a single bundle's metadata, returned
// by the push and activate endpoints.
type BundleInfoDoc struct {
	XMLName xml.Name `json:"-" xml:"bundle"`
	policy.BundleInfo
}

// BundleStatusDoc is the wire form of GET /v1/bundles: the active bundle,
// the previous one (rollback target), and any staged-but-inactive pushes.
type BundleStatusDoc struct {
	XMLName xml.Name `json:"-" xml:"bundles"`
	policy.BundleStatus
}

// BundleActivateRequest selects what POST /v1/bundles/activate switches
// to. Exactly one of the three modes must be set (the op validates it): a
// previously pushed version, an inline bundle document, or a rollback to
// the previously active bundle.
type BundleActivateRequest struct {
	XMLName  xml.Name        `json:"-" xml:"activateBundle"`
	Version  string          `json:"version,omitempty" xml:"version,omitempty"`
	Bundle   json.RawMessage `json:"bundle,omitempty" xml:"-"`
	Rollback bool            `json:"rollback,omitempty" xml:"rollback,omitempty"`
}

// errBundleJSONOnly refuses to carry a bundle document in XML: the bundle
// encoding is JSON-canonical, its checksum is defined over that form.
var errBundleJSONOnly = errors.New("policyhttp: bundle documents are JSON-only; use a JSON-mode client")

// MarshalXML encodes the request, refusing one that carries a bundle
// document (errBundleJSONOnly).
func (d *BundleActivateRequest) MarshalXML(e *xml.Encoder, _ xml.StartElement) error {
	if len(d.Bundle) > 0 {
		return errBundleJSONOnly
	}
	type plain BundleActivateRequest
	return e.Encode((*plain)(d))
}

// handleBundlePush stages a policy bundle without activating it. The body
// is the bundle document itself, always JSON (the bundle encoding is
// JSON-canonical; its checksum is defined over that form), so unlike the
// other endpoints an XML Content-Type is rejected outright.
func (s *Server) handleBundlePush(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	if reqf, err := requestFormat(r); err != nil || reqf != formatJSON {
		s.writeError(w, resf, http.StatusUnsupportedMediaType,
			errors.New("bundle documents must be application/json"))
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, resf, http.StatusBadRequest, fmt.Errorf("read bundle: %w", err))
		return
	}
	info, err := s.svc.StageBundle(data)
	if err != nil {
		s.writeError(w, resf, statusFor(err), err)
		return
	}
	s.writeResponse(w, resf, http.StatusOK, &BundleInfoDoc{BundleInfo: *info})
}

// handleBundles reports bundle status. The ETag is the active bundle's
// checksum, so pollers can cheaply watch for activations with
// If-None-Match.
func (s *Server) handleBundles(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	st := s.svc.Bundles()
	etag := `"` + st.Active.Checksum + `"`
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.writeResponse(w, resf, http.StatusOK, &BundleStatusDoc{BundleStatus: *st})
}

// statusFor splits errors the request caused (deterministic on every
// replica: 400) from infrastructure failures local to this one (500), by
// sentinel only — an error that merely mentions "required" is still a 500.
func statusFor(err error) int {
	if errors.Is(err, policy.ErrEmptyRequest) || errors.Is(err, policy.ErrInvalidRequest) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
