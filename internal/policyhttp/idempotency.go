package policyhttp

import (
	"maps"
	"net/http"
	"sync"
)

// idemEntry records the response produced by the first application of an
// idempotency key. done is closed once the response is recorded, so
// concurrent duplicates wait for the original instead of re-applying.
type idemEntry struct {
	done chan struct{}
	resp recorder
}

// idemCache is a bounded single-flight response cache keyed by the
// client-supplied Idempotency-Key header. The first request with a given
// key executes; duplicates (retries after a lost response, duplicated
// deliveries) receive the recorded response without re-applying the
// mutation — at-most-once application per key.
type idemCache struct {
	mu      sync.Mutex
	entries map[string]*idemEntry
	order   []string // insertion order, for FIFO eviction
}

// idemCap bounds retained responses; retries arrive within seconds, so a
// small window of recent mutations is ample.
const idemCap = 1024

// begin claims key. first=true: execute, record into entry.resp, then close
// done or forget the key. first=false returns the (possibly pending) entry
// to replay after waiting on entry.done.
func (c *idemCache) begin(key string) (entry *idemEntry, first bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &idemEntry{done: make(chan struct{}), resp: recorder{code: http.StatusOK}}
	c.entries[key] = e
	c.order = append(c.order, key)
	for len(c.order) > idemCap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	return e, true
}

// forget releases the entry's waiters but drops the key, so the next
// request with it executes afresh: for responses that promise the mutation
// was never applied (shed, draining, abandoned), which replayed would turn
// a client's post-backoff retry into a rejection.
func (c *idemCache) forget(key string, e *idemEntry) {
	c.mu.Lock()
	if c.entries[key] == e {
		delete(c.entries, key)
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// recorder keeps a handler's response: writeResponse hands it status, type
// and encoded body in one copy; other headers (Retry-After) go to header.
type recorder struct {
	code   int
	ctype  []string
	header http.Header
	body   []byte
}

func (rc *recorder) Header() http.Header {
	if rc.header == nil {
		rc.header = make(http.Header)
	}
	return rc.header
}

func (rc *recorder) WriteHeader(code int) { rc.code = code }

func (rc *recorder) Write(p []byte) (int, error) {
	rc.body = append(rc.body, p...)
	return len(p), nil
}

// writeTo writes the recorded response to w, marked replayed if replay.
func (rc *recorder) writeTo(w http.ResponseWriter, replay bool) {
	h := w.Header()
	maps.Copy(h, rc.header)
	if rc.ctype != nil {
		h["Content-Type"] = rc.ctype
	}
	if replay {
		h.Set(IdempotencyReplayedHeader, "true")
	}
	w.WriteHeader(rc.code)
	w.Write(rc.body)
}

// idempotent wraps a mutating handler with at-most-once semantics per
// Idempotency-Key header. Requests without the header pass through
// unchanged (the pre-retry wire behaviour).
func (s *Server) idempotent(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(IdempotencyKeyHeader)
		if key == "" {
			h(w, r)
			return
		}
		e, first := s.idem.begin(key)
		if !first {
			<-e.done
			s.idemReplays.Inc()
			e.resp.writeTo(w, true)
			return
		}
		h(&e.resp, r)
		if notApplied(e.resp.code) {
			s.idem.forget(key, e)
		} else {
			close(e.done)
		}
		e.resp.writeTo(w, false)
	}
}

// notApplied reports response codes that promise the mutation had no side
// effect: admission shed (429), draining or standby (503), abandoned
// because the client's context ended while queued (408), and fenced (412 —
// the epoch fence refused the request before the handler ran; defensive
// here, since the fence wraps outside this cache). These must not enter
// the idempotency cache — the whole point of the client retrying under the
// same key is that the next attempt may be admitted (or re-routed to the
// primary, for 412).
func notApplied(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusRequestTimeout ||
		code == http.StatusPreconditionFailed
}
