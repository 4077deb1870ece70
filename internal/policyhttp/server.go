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
// GET /v1/state/archive serves the snapshot+tail a standby pulls to stay
// warm; a server without a durable store answers with its live dump.
// Servers attached to a durable store (SetDurable) additionally serve
// POST /v1/state/snapshot.
package policyhttp

import (
	"bytes"
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
	"policyflow/internal/durable"
	"policyflow/internal/obs"
	"policyflow/internal/policy"
)

// maxBodyBytes bounds request bodies; a transfer list for even a very
// large workflow is far below this.
const maxBodyBytes = 16 << 20

// TransferRequest is the request document of POST /v1/transfers. The
// op's payload is a bare slice, whose JSON form the WAL pins, so the
// document is an envelope around it.
type TransferRequest struct {
	XMLName   xml.Name              `xml:"transferRequest" json:"-"`
	Transfers []policy.TransferSpec `json:"transfers" xml:"transfers>transfer"`
}

// CleanupRequest is the request document of POST /v1/cleanups, an
// envelope for the same reason as TransferRequest.
type CleanupRequest struct {
	XMLName  xml.Name             `xml:"cleanupRequest" json:"-"`
	Cleanups []policy.CleanupSpec `json:"cleanups" xml:"cleanups>cleanup"`
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
	durable *durable.PolicyStore

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
	s.idem = &idemCache{entries: make(map[string]*idemEntry)}
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
	b := s.svc.ActiveBundle()
	s.writeResponse(w, resf, http.StatusOK, &ConfigDoc{
		Bundle:           b.Version,
		Algorithm:        b.Algorithm,
		DefaultStreams:   b.DefaultStreams,
		MinStreams:       b.MinStreams,
		DefaultThreshold: b.DefaultThreshold,
		ClusterFactor:    b.ClusterFactor,
	})
}

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

// handleMetrics renders the full metrics registry in the Prometheus text
// exposition format (no external dependency needed for the text form).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
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

// ServeHTTP implements http.Handler. Every request is counted and timed by
// matched route pattern. A Traceparent header's span context goes into
// the request context, so spans, lifecycle events and decision records
// carry the caller's trace; with a tracer, an http.server span wraps it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.log != nil {
		s.log.Printf("%s %s", r.Method, r.URL.Path)
	}
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	ctx := r.Context()
	sc, traced := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	if traced {
		ctx = obs.ContextWithSpan(ctx, sc)
	}
	ctx, span := obs.StartSpan(ctx, s.tracer, "http.server")
	if traced || span != nil {
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

// contentTypes are the reply Content-Type values by format, shared by
// every reply.
var contentTypes = [...][]string{
	formatJSON: {"application/json; charset=utf-8"},
	formatXML:  {"application/xml; charset=utf-8"},
}

// requestFormat inspects Content-Type; unknown or absent means JSON.
func requestFormat(r *http.Request) (format, error) {
	ct := r.Header.Get("Content-Type")
	if ct == "" || ct == "application/json" {
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

// buffer is a pooled buffer for encoding documents and reading bodies, with
// the JSON codecs bound to it: a call builds neither (XML, the rare format,
// still does). release keeps one grown by a large restore out of the pool.
type buffer struct {
	bytes.Buffer
	body        io.LimitedReader
	rd          bytes.Reader
	enc         *json.Encoder
	strict, lax *json.Decoder // read rd; nil until used and after an error
}

var buffers = sync.Pool{New: func() any { b := new(buffer); b.enc = json.NewEncoder(b); return b }}

func getBuffer() *buffer { b := buffers.Get().(*buffer); b.Reset(); return b }

func (b *buffer) release() {
	if b.Cap() <= 64<<10 {
		buffers.Put(b)
	}
}

// encode appends v in format f; reply selects the server's XML form.
func (b *buffer) encode(f format, v any, reply bool) error {
	if f == formatJSON {
		return b.enc.Encode(v)
	}
	enc := xml.NewEncoder(b)
	if reply {
		b.WriteString(xml.Header)
		enc.Indent("", "  ")
	}
	return enc.Encode(v)
}

// decode reads at most limit bytes of r into v; strict refuses unknown
// JSON fields. Exactly one JSON value leaves the pooled decoder drained;
// any other body gets a decoder of its own, which, like a stream decoder,
// ignores what follows a first value.
func (b *buffer) decode(r io.Reader, limit int64, f format, v any, strict bool) error {
	b.body = io.LimitedReader{R: r, N: limit}
	_, err := b.ReadFrom(&b.body)
	b.body.R = nil
	dec, one := &b.lax, json.Valid(b.Bytes())
	if strict {
		dec = &b.strict
	}
	d := *dec
	switch {
	case err != nil:
		return err
	case f == formatXML:
		return xml.Unmarshal(b.Bytes(), v)
	case d == nil || !one:
		d = json.NewDecoder(&b.rd)
		if strict {
			d.DisallowUnknownFields()
		}
	}
	b.rd.Reset(b.Bytes())
	if err = d.Decode(v); err != nil {
		d = nil
	}
	if one {
		*dec = d
	}
	return err
}

// writeResponse encodes v and writes it with status. The idempotency
// recorder takes the encoded reply whole, in one copy.
func (s *Server) writeResponse(w http.ResponseWriter, f format, status int, v any) {
	b := getBuffer()
	defer b.release()
	if err := b.encode(f, v, true); err != nil && s.log != nil {
		s.log.Printf("encode response: %v", err)
	}
	if rec, ok := w.(*recorder); ok {
		rec.code, rec.ctype, rec.body = status, contentTypes[f], append(rec.body, b.Bytes()...)
		return
	}
	w.Header()["Content-Type"] = contentTypes[f]
	w.WriteHeader(status)
	w.Write(b.Bytes())
}

func (s *Server) writeError(w http.ResponseWriter, f format, status int, err error) {
	s.writeResponse(w, f, status, &ErrorDoc{Message: err.Error()})
}

// route binds one logged op to its endpoint. The server and Client.Execute
// read the same row: the server decodes the request document into the
// op's payload and encodes the op's result as the reply, the client does
// the reverse, so the two halves cannot drift apart. Most payloads and
// results are their own documents (see package policy); the codecs of the
// rest convert.
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

// plain is the codec of a payload passed by value that is its own document.
func plain[V any]() codec { return field(self[V]) }

// same is the codec of a result passed by pointer that is its own document.
func same[V any]() codec { return wireOf(self[V], self[V]) }

// routes is the HTTP face of the policy op table: one row per logged op.
var routes = map[string]route{
	policy.OpAdviseTransfers: {http.MethodPost, "/v1/transfers", true,
		field(func(d *TransferRequest) *[]policy.TransferSpec { return &d.Transfers }),
		same[policy.TransferAdvice]()},
	policy.OpReportTransfers: {http.MethodPost, "/v1/transfers/completed", true,
		plain[policy.CompletionReport](), same[policy.ReportAck]()},
	policy.OpAdviseCleanups: {http.MethodPost, "/v1/cleanups", true,
		field(func(d *CleanupRequest) *[]policy.CleanupSpec { return &d.Cleanups }),
		same[policy.CleanupAdvice]()},
	policy.OpReportCleanups: {http.MethodPost, "/v1/cleanups/completed", true,
		plain[policy.CleanupReport](), same[policy.ReportAck]()},
	policy.OpSetThreshold: {http.MethodPut, "/v1/thresholds", true,
		plain[policy.ThresholdOp](), nil},
	policy.OpImportState: {http.MethodPost, "/v1/state/restore", false,
		same[policy.StateDump](), nil},
	policy.OpRenewLease: {http.MethodPost, "/v1/leases/renew", true,
		plain[policy.LeaseOp](), same[policy.LeaseStatus]()},
	policy.OpAdvanceClock: {http.MethodPost, "/v1/clock/advance", true,
		plain[policy.ClockOp](), same[policy.ClockAdvance]()},
	policy.OpActivateBundle: {http.MethodPost, "/v1/bundles/activate", true,
		wireOf(func(v policy.BundleOp) *BundleActivateRequest {
			return &BundleActivateRequest{Version: v.Version, Bundle: v.Doc, Rollback: v.Rollback}
		}, func(d *BundleActivateRequest) policy.BundleOp {
			return policy.BundleOp{Doc: d.Bundle, Version: d.Version, Rollback: d.Rollback}
		}),
		wireOf(func(v *policy.BundleInfo) *BundleInfoDoc { return &BundleInfoDoc{BundleInfo: *v} },
			func(d *BundleInfoDoc) *policy.BundleInfo { return &d.BundleInfo })},
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
		doc, b := rt.req.blank(), getBuffer()
		err = b.decode(r.Body, maxBodyBytes, reqf, doc, true)
		b.release()
		if err != nil {
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
	s.writeResponse(w, resf, http.StatusOK, s.svc.Leases())
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	snap := s.svc.Snapshot()
	s.writeResponse(w, resf, http.StatusOK, &snap)
}

func (s *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	resf := responseFormat(r, formatJSON)
	s.writeResponse(w, resf, http.StatusOK, s.svc.ExportState())
}

// BundleInfoDoc is the wire form of a single bundle's metadata, returned
// by the push and activate endpoints. policy.BundleInfo cannot be its own
// document: BundleStatus nests it under other element names, which
// encoding/xml refuses to reconcile with a root name of its own.
type BundleInfoDoc struct {
	XMLName xml.Name `json:"-" xml:"bundle"`
	policy.BundleInfo
}

// BundleActivateRequest selects what POST /v1/bundles/activate switches
// to. Exactly one of the three modes must be set (the op validates it): a
// previously pushed version, an inline bundle document, or a rollback to
// the previously active bundle. It is not policy.BundleOp, whose JSON is
// the logged form: the resolved bundle, never the request.
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
	s.writeResponse(w, resf, http.StatusOK, st)
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
