package main

import (
	"context"
	"net/http"
	"time"

	"policyflow/internal/admit"
)

// drainAndShutdown performs a graceful stop within one hard deadline:
//
//  1. The admission controller is drained first — new submissions shed
//     immediately with 503 + Retry-After while every request already
//     accepted into a queue runs to completion. Drain also waits for the
//     pipelined commit of every accepted mutation, so once it returns the
//     data directory holds them all: main seals and closes the store as
//     soon as ListenAndServe returns, which it does when Shutdown starts,
//     not when the handlers finish.
//  2. The HTTP server then shuts down, closing the listener and waiting
//     for in-flight handlers, which by now only have responses left to
//     flush.
//  3. Finally the controller's dispatcher goroutine is stopped.
//
// If the deadline expires mid-drain, both the drain wait and
// srv.Shutdown give up and the remaining work is cut off — the bound on
// shutdown latency wins over completeness, and the WAL makes the cutoff
// safe (unacknowledged work was never acknowledged).
func drainAndShutdown(srv *http.Server, ctl *admit.Controller, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	drained := true
	if ctl != nil {
		drained = ctl.Drain(ctx) == nil
	}
	srv.Shutdown(ctx)
	if ctl != nil {
		if drained {
			ctl.Close()
		} else {
			// The deadline expired mid-drain: a batch is wedged in the
			// runner and Close would block behind it. Detach the stop so
			// the shutdown latency bound holds; the process is exiting
			// anyway, and unacknowledged work was never acknowledged.
			go ctl.Close()
		}
	}
}
