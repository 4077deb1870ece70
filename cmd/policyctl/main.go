// Command policyctl is a command-line client for a running Policy Service.
//
// Usage:
//
//	policyctl -server http://localhost:8765 state
//	policyctl -server http://localhost:8765 health
//	policyctl -server http://localhost:8765 set-threshold src.example.org dst.example.org 50
//	policyctl -server http://localhost:8765 advise transfers.json
//	policyctl -server http://localhost:8765 complete t-00000001 t-00000002
//
// The advise subcommand reads a JSON array of transfer specs:
//
//	[{"requestId":"r1","workflowId":"wf1",
//	  "sourceUrl":"gsiftp://data.example.org/f1",
//	  "destUrl":"file://cluster.example.org/scratch/f1"}]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"policyflow/internal/bundle"
	"policyflow/internal/policy"
	"policyflow/internal/policyhttp"
)

func main() {
	var (
		server = flag.String("server", "http://localhost:8765", "policy service base URL")
		useXML = flag.Bool("xml", false, "speak XML instead of JSON on the wire")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	var opts []policyhttp.ClientOption
	if *useXML {
		opts = append(opts, policyhttp.WithXML())
	}
	client := policyhttp.NewClient(*server, opts...)

	var err error
	switch args[0] {
	case "state":
		err = showState(client)
	case "health":
		err = client.Healthz()
		if err == nil {
			fmt.Println("ok")
		}
	case "set-threshold":
		if len(args) != 4 {
			usage()
		}
		var max int
		max, err = strconv.Atoi(args[3])
		if err == nil {
			_, err = client.Execute(context.Background(), policy.OpSetThreshold,
				policy.ThresholdOp{SourceHost: args[1], DestHost: args[2], Max: max})
		}
	case "advise":
		if len(args) != 2 {
			usage()
		}
		err = advise(client, args[1])
	case "complete":
		if len(args) < 2 {
			usage()
		}
		err = complete(client, args[1:])
	case "leases":
		err = leases(client, os.Stdout)
	case "renew-lease":
		if len(args) != 2 {
			usage()
		}
		err = renewLease(client, args[1])
	case "advance-clock":
		if len(args) != 2 {
			usage()
		}
		err = advanceClock(client, args[1])
	case "cleanup":
		if len(args) < 3 {
			usage()
		}
		err = cleanup(client, args[1], args[2:])
	case "explain":
		if len(args) != 3 {
			usage()
		}
		err = explain(client, os.Stdout, args[1], args[2])
	case "bundle":
		if len(args) < 2 {
			usage()
		}
		err = bundleCmd(client, os.Stdout, args[1:])
	case "metrics":
		err = metrics(client, os.Stdout)
	case "dump":
		err = dump(client)
	case "restore":
		if len(args) != 2 {
			usage()
		}
		err = restore(client, args[1])
	case "snapshot":
		err = snapshot(client)
	case "promote":
		err = promote(client)
	case "demote":
		err = demote(client)
	case "epoch":
		err = epoch(client)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "policyctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: policyctl [-server URL] [-xml] <command>
commands:
  state                                  show stream ledgers and resources
  health                                 liveness probe
  set-threshold <src> <dst> <max>        set a host-pair stream threshold
  advise <specs.json>                    submit a transfer list for advice
  complete <transfer-id>...              report completed transfers
  cleanup <workflow-id> <file-url>...    request file deletions
  explain <workflow-id> <lfn>            show the decision provenance for a file
  bundle push <bundle.json>              stage a policy bundle without activating it
  bundle activate <version|bundle.json>  activate a staged version or an inline document
  bundle status                          show active, previous, and staged bundles
  bundle rollback                        re-activate the previously active bundle
  bundle validate <bundle.json>...       validate bundle files locally (no server)
  leases                                 list active workflow leases
  renew-lease <workflow-id>              register or extend a workflow lease
  advance-clock <seconds>                advance the logical clock (expires leases)
  metrics                                fetch and pretty-print /v1/metrics
  dump                                   print the Policy Memory snapshot
  restore <dump.json>                    replace Policy Memory from a dump
  snapshot                               force a durable snapshot + WAL compaction
  promote                                promote this server to primary (fences the peer)
  demote                                 step this server down to standby
  epoch                                  show the server's fencing epoch and role`)
	os.Exit(2)
}

func complete(c *policyhttp.Client, ids []string) error {
	ack, err := c.ReportTransfers(policy.CompletionReport{TransferIDs: ids})
	if err != nil {
		return err
	}
	fmt.Printf("matched %d, unmatched %d\n", ack.Matched, ack.Unmatched)
	return nil
}

// explain renders the why-chain for one logical file of one workflow: the
// decision records whose lines touched the file, each with the rules that
// fired (in firing order), the fact counts matched against, and the
// per-file outcome — the granted stream count, the suppression reason, or
// the completion/cleanup result.
func explain(c *policyhttp.Client, w io.Writer, workflowID, lfn string) error {
	recs, err := c.Decisions(0, "", workflowID, lfn, "")
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Fprintf(w, "no decision records for workflow %q and file %q\n", workflowID, lfn)
		fmt.Fprintln(w, "(the ring is bounded; older decisions may have been evicted)")
		return nil
	}
	for _, r := range recs {
		fmt.Fprintf(w, "decision %d: %s", r.Seq, r.Op)
		if r.TimeUnixNano != 0 {
			fmt.Fprintf(w, " at %s", time.Unix(0, r.TimeUnixNano).UTC().Format(time.RFC3339))
		}
		if r.WALSeq > 0 {
			fmt.Fprintf(w, "  wal-seq %d", r.WALSeq)
		}
		if r.TraceID != "" {
			fmt.Fprintf(w, "  trace %s", r.TraceID)
		}
		if r.Bundle != "" {
			fmt.Fprintf(w, "  bundle %s", r.Bundle)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  matched against %d fact(s), %d after\n", r.FactsBefore, r.FactsAfter)
		if len(r.RulesFired) > 0 {
			fmt.Fprintln(w, "  rules fired, in order:")
			for i, f := range r.RulesFired {
				fmt.Fprintf(w, "    %2d. %s (salience %d)\n", i+1, f.Rule, f.Salience)
			}
		}
		for _, ln := range r.Lines {
			if !policyhttp.MatchesLFN(ln.FileURL, lfn) {
				continue
			}
			fmt.Fprintf(w, "  %s\n", ln.FileURL)
			switch ln.Outcome {
			case policy.OutcomeAdvised:
				fmt.Fprintf(w, "    -> advised: %d stream(s), group %s, transfer %s\n",
					ln.Streams, ln.GroupID, ln.ID)
			case policy.OutcomeSuppressed:
				fmt.Fprintf(w, "    -> suppressed: %s\n", ln.Reason)
			default:
				fmt.Fprintf(w, "    -> %s (%s)\n", ln.Outcome, ln.ID)
			}
		}
	}
	return nil
}

// bundleCmd dispatches the bundle subcommands. All but validate talk to
// the server; validate parses and checks the files locally, so it can
// gate a commit (make bundle-check) without a running service.
func bundleCmd(c *policyhttp.Client, w io.Writer, args []string) error {
	switch args[0] {
	case "push":
		if len(args) != 2 {
			usage()
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			return err
		}
		info, err := c.PushBundle(data)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "staged bundle %s (checksum %.12s)\n", info.Version, info.Checksum)
		fmt.Fprintf(w, "activate with: policyctl bundle activate %s\n", info.Version)
		return nil
	case "activate":
		if len(args) != 2 {
			usage()
		}
		// A readable file activates by inline document; anything else is
		// taken as a previously pushed version.
		op := policy.BundleOp{Version: args[1]}
		if data, rerr := os.ReadFile(args[1]); rerr == nil {
			op = policy.BundleOp{Doc: data}
		}
		info, err := policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, op)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "bundle %s active (checksum %.12s, algorithm %s)\n",
			info.Version, info.Checksum, info.Algorithm)
		return nil
	case "status":
		st, err := c.Bundles()
		if err != nil {
			return err
		}
		printBundleInfo(w, "active  ", st.Active)
		if st.Previous != nil {
			printBundleInfo(w, "previous", *st.Previous)
		}
		for _, b := range st.Staged {
			printBundleInfo(w, "staged  ", b)
		}
		return nil
	case "rollback":
		info, err := policy.Call[*policy.BundleInfo](context.Background(), c, policy.OpActivateBundle, policy.BundleOp{Rollback: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "rolled back to bundle %s (checksum %.12s, algorithm %s)\n",
			info.Version, info.Checksum, info.Algorithm)
		return nil
	case "validate":
		if len(args) < 2 {
			usage()
		}
		return validateBundles(w, args[1:])
	default:
		usage()
	}
	return nil
}

func printBundleInfo(w io.Writer, label string, b policy.BundleInfo) {
	fmt.Fprintf(w, "%s %-12s checksum %.12s  algorithm %s", label, b.Version, b.Checksum, b.Algorithm)
	if b.Description != "" {
		fmt.Fprintf(w, "  (%s)", b.Description)
	}
	fmt.Fprintln(w)
}

// validateBundles parses and validates each bundle file locally and
// prints its version and checksum; any invalid file makes the command
// fail after all files have been reported.
func validateBundles(w io.Writer, paths []string) error {
	bad := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", p, err)
			bad++
			continue
		}
		b, err := bundle.Parse(data)
		if err != nil {
			fmt.Fprintf(w, "%s: INVALID: %v\n", p, err)
			bad++
			continue
		}
		fmt.Fprintf(w, "%s: ok (version %s, checksum %.12s, algorithm %s)\n",
			p, b.Version, b.Checksum(), b.Algorithm)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d bundle file(s) failed validation", bad, len(paths))
	}
	return nil
}

// leases prints the active workflow leases with the holdings each would
// forfeit on expiry.
func leases(c *policyhttp.Client, w io.Writer) error {
	list, err := c.Leases()
	if err != nil {
		return err
	}
	if list.TTLSeconds <= 0 {
		fmt.Fprintln(w, "leases disabled (service LeaseTTL is 0)")
		return nil
	}
	fmt.Fprintf(w, "clock %.1f, ttl %.1fs, %d lease(s)\n", list.Now, list.TTLSeconds, len(list.Leases))
	for _, l := range list.Leases {
		fmt.Fprintf(w, "  %-20s deadline %.1f (in %.1fs)  streams %d  in-progress %d\n",
			l.WorkflowID, l.Deadline, l.Deadline-list.Now, l.HeldStreams, l.InProgress)
	}
	return nil
}

func renewLease(c *policyhttp.Client, workflowID string) error {
	st, err := policy.Call[*policy.LeaseStatus](context.Background(), c, policy.OpRenewLease, policy.LeaseOp{WorkflowID: workflowID})
	if err != nil {
		return err
	}
	fmt.Printf("lease %s renewed, deadline %.1f\n", st.WorkflowID, st.Deadline)
	return nil
}

func advanceClock(c *policyhttp.Client, arg string) error {
	now, err := strconv.ParseFloat(arg, 64)
	if err != nil {
		return fmt.Errorf("bad clock value %q: %w", arg, err)
	}
	adv, err := policy.Call[*policy.ClockAdvance](context.Background(), c, policy.OpAdvanceClock, policy.ClockOp{Now: now})
	if err != nil {
		return err
	}
	fmt.Printf("clock %.1f, expired %d lease(s), reclaimed %d transfer(s)\n",
		adv.Now, len(adv.Expired), adv.ReclaimedTransfers)
	return nil
}

func cleanup(c *policyhttp.Client, workflowID string, urls []string) error {
	specs := make([]policy.CleanupSpec, 0, len(urls))
	for i, u := range urls {
		specs = append(specs, policy.CleanupSpec{
			RequestID:  fmt.Sprintf("ctl-%d", i),
			WorkflowID: workflowID,
			FileURL:    u,
		})
	}
	adv, err := c.AdviseCleanups(specs)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(adv, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// metrics fetches /v1/metrics and pretty-prints it: one header line per
// metric family (name, type and help drawn from the # comments), samples
// indented beneath it, histogram bucket series elided to their _sum and
// _count lines to keep the terminal readable.
func metrics(c *policyhttp.Client, w io.Writer) error {
	text, err := c.Metrics()
	if err != nil {
		return err
	}
	var help, typ string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			help = strings.TrimPrefix(line, "# HELP ")
		case strings.HasPrefix(line, "# TYPE "):
			typ = strings.TrimPrefix(line, "# TYPE ")
			if name, kind, ok := strings.Cut(typ, " "); ok {
				fmt.Fprintf(w, "%s (%s)", name, kind)
				if _, h, ok := strings.Cut(help, " "); ok {
					fmt.Fprintf(w, " — %s", h)
				}
				fmt.Fprintln(w)
			}
		case strings.Contains(line, "_bucket{"):
			// Bucket-by-bucket detail stays on the raw endpoint.
		default:
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	return nil
}

func dump(c *policyhttp.Client) error {
	d, err := c.Dump()
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// snapshot asks a durably-configured service to write a snapshot now and
// compact its WAL; it prints the snapshot's log position, size and cost.
func snapshot(c *policyhttp.Client) error {
	info, err := c.SnapshotNow()
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// promote triggers the failover protocol on the addressed server: demote
// the old primary if reachable, catch up on the log records it has not
// synced yet, bump the epoch, and start accepting writes.
func promote(c *policyhttp.Client) error {
	res, err := c.Promote()
	if err != nil {
		return err
	}
	caught := "caught up from peer"
	if !res.CaughtUp {
		caught = "peer unreachable, serving from last sync"
	}
	fmt.Printf("promoted to %s at epoch %d (%s)\n", res.Role, res.Epoch, caught)
	return nil
}

func demote(c *policyhttp.Client) error {
	res, err := c.Demote()
	if err != nil {
		return err
	}
	fmt.Printf("demoted to %s at epoch %d\n", res.Role, res.Epoch)
	return nil
}

func epoch(c *policyhttp.Client) error {
	res, err := c.EpochInfo()
	if err != nil {
		return err
	}
	fmt.Printf("epoch %d, role %s\n", res.Epoch, res.Role)
	return nil
}

func restore(c *policyhttp.Client, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d policy.StateDump
	if err := json.Unmarshal(data, &d); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	_, err = c.Execute(context.Background(), policy.OpImportState, &d)
	return err
}

func showState(c *policyhttp.Client) error {
	st, err := c.State()
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func advise(c *policyhttp.Client, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var specs []policy.TransferSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	adv, err := c.AdviseTransfers(specs)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(adv, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
