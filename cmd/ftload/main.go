// Command ftload is a load generator for ftnetd: it creates a fleet of
// instances, drives them with a configurable mix of fault/repair
// events and phi lookups from concurrent workers, and reports
// throughput and latency percentiles. The traffic loop lives in
// internal/loadgen.
//
// The storm — lookups and event bursts — runs over the binary RPC
// plane (internal/wire): persistent pipelined connections to the
// daemon's -rpc-addr listener (or an ftproxy RPC front), lookups
// vectorized into LookupBatch frames of -rpc-lookup-batch. Fleet
// creation, verification and stats scraping use the JSON API at -addr.
//
// Usage:
//
//	ftload -addr http://localhost:8080 -rpc-addr 127.0.0.1:9090 \
//	       -instances 4 -kind debruijn -m 2 -digits 6 -k 4 \
//	       -workers 8 -requests 20000 -eventfrac 0.1
//
// With -eventfrac 0.1, ~10% of operations are reconfiguration events
// (fault or repair, 50/50) and ~90% are lookups — the read-heavy shape
// a fleet of mostly-healthy machines produces. With -batch n > 1 each
// reconfiguration operation sends n events as one atomic burst.
// -scenario selects a named preset instead:
//
//	ftload -scenario read-heavy    # ~1% events, the lock-free lookup path
//	ftload -scenario burst-heavy   # 30% events in atomic 4-event bursts
//	ftload -scenario write-storm   # dedicated writers hammer bursts
//	                               # while the other workers measure read p99
//
// The restart scenario is the crash-recovery probe; ftload itself
// spawns the daemon, SIGKILLs it mid write-storm, restarts it over the
// same journal, and verifies every instance recovered to (at least)
// its last acknowledged epoch with a bit-identical mapping:
//
//	ftload -scenario restart -rpc-addr 127.0.0.1:18083 \
//	    -exec "./ftnetd -addr 127.0.0.1:18080 -rpc-addr 127.0.0.1:18083 -journal /tmp/ft.wal -fsync always" \
//	    -addr http://127.0.0.1:18080
//
// With -follower <url> the run doubles as a replication probe: after
// the load finishes, ftload requires the follower daemon (ftnetd
// -follow) to converge with the leader — every driven instance at the
// same epoch with a bit-identical phi slice:
//
//	ftload -scenario write-storm -addr http://leader:8080 \
//	       -rpc-addr leader:9090 -follower http://replica:8081
//
// With -obs-json <path> the run also scrapes the daemon's server-side
// histograms (/v1/stats obs section) afterwards and writes the
// BENCH_service.json SLO artifact — request p99 by route, fsync p99,
// replication lag p99 (when -follower is set), compaction pause max,
// RPC op p99 by op, lookup p99 and lookups/s — which CI diffs against a
// committed baseline with ftbenchdiff:
//
//	ftload -scenario write-storm -addr http://leader:8080 -rpc-addr leader:9090 \
//	       -follower http://replica:8081 -obs-json BENCH_service.json
//
// The partition-torture scenario is the failover probe: ftload spawns
// a leader (-exec) and a follower (-exec-follower), storms the leader,
// SIGSTOPs the follower mid-storm (the partition — the leader keeps
// acknowledging writes the replica never sees), SIGKILLs the leader,
// SIGCONTs the follower and promotes it via POST /v1/promote, then
// restarts the deposed leader over its own journal as a follower of
// the new one (-exec-rejoin) and requires it to self-heal: demote on
// the higher term, discard its unreplicated tail, converge
// bit-identically, and 403 every direct write — zero stale-term writes
// accepted. The run measures divergence_window (partition to kill) and
// failover_downtime (kill to the promoted replica accepting writes):
//
//	ftload -scenario partition-torture -addr http://127.0.0.1:18080 \
//	    -rpc-addr 127.0.0.1:18083 -follower http://127.0.0.1:18081 \
//	    -exec "./ftnetd -addr 127.0.0.1:18080 -rpc-addr 127.0.0.1:18083 -journal /tmp/a.wal" \
//	    -exec-follower "./ftnetd -addr 127.0.0.1:18081 -journal /tmp/b.wal -follow http://127.0.0.1:18080" \
//	    -exec-rejoin "./ftnetd -addr 127.0.0.1:18080 -journal /tmp/a.wal -follow http://127.0.0.1:18081"
//
// The cluster scenario is the scale-out probe: point -peers at a fleet
// of daemons booted *unsharded*, -rpc-addr at an ftproxy RPC front
// whose ring names all of them, name the member that should join the
// ring mid-storm with -join, and ftload owns the topology lifecycle —
// it installs the initial ring over POST /v1/ring, storms the cluster
// through the proxy (which chases wrong-shard hints and learns them;
// ftload asks again once after a wrong-shard answer the proxy could
// not chase, and rides out staged windows with backoff), adds the
// joiner to every ring mid-storm, triggers /v1/rebalance so displaced
// instances are checkpoint-streamed to it, and then verifies the
// handoff: every instance on exactly its ring owner, epoch equal to
// the acknowledged watermark (zero lost or double-applied transitions),
// phi slice bit-identical to a fresh recomputation. With -obs-json it
// emits the rebalance_pause, proxy_lookups_per_sec and
// proxy_lookup_p99 SLO families:
//
//	ftload -scenario cluster -rpc-addr 127.0.0.1:18127 -instances 24 -requests 30000 \
//	    -peers a=http://127.0.0.1:18120,b=http://127.0.0.1:18121,c=http://127.0.0.1:18122 \
//	    -join c -obs-json BENCH_service_proxy.json
//
// Rejected events (budget exhausted, repairing a healthy node, a burst
// with one invalid event) are counted separately: they are the daemon
// correctly enforcing the paper's k-fault precondition, not failures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/loadgen"
	"ftnet/internal/obs"
	"ftnet/internal/shard"
)

type config struct {
	loadgen.Config
	scenario     string // named scenario; overrides eventfrac/batch when set
	exec         string // daemon command line the restart/failover scenarios spawn and kill
	execFollower string // follower daemon command line (partition-torture)
	execRejoin   string // deposed-leader rejoin command line (partition-torture)
	follower     string // follower base URL to verify convergence against after the run
	obsJSON      string // path to write the BENCH_service.json SLO artifact to
	peers        string // cluster membership "name=url,..." (cluster scenario)
	join         string // member joining the ring mid-storm (cluster scenario)
}

func main() {
	var cfg config
	var kind string
	flag.StringVar(&cfg.Addr, "addr", "http://localhost:8080", "base URL of the ftnetd daemon's JSON API (the control plane)")
	flag.IntVar(&cfg.Instances, "instances", 4, "number of instances to create and drive")
	flag.StringVar(&kind, "kind", "debruijn", `topology kind: "debruijn" or "shuffle"`)
	flag.IntVar(&cfg.Spec.M, "m", 2, "de Bruijn base")
	flag.IntVar(&cfg.Spec.H, "digits", 6, "digits/bits h (2^h or m^h target nodes)")
	flag.IntVar(&cfg.Spec.K, "k", 4, "fault budget per instance")
	flag.IntVar(&cfg.Workers, "workers", 8, "concurrent workers")
	flag.IntVar(&cfg.Requests, "requests", 20000, "total operations to issue")
	flag.Float64Var(&cfg.Scenario.EventFrac, "eventfrac", 0.1, "fraction of ops that are fault/repair events")
	flag.IntVar(&cfg.Scenario.Batch, "batch", 1, "events per reconfiguration op, applied as one atomic burst")
	flag.StringVar(&cfg.scenario, "scenario", "", `named scenario preset: "mixed", "read-heavy", "burst-heavy", "write-storm", "restart", "partition-torture" or "cluster" (overrides -eventfrac/-batch)`)
	flag.StringVar(&cfg.peers, "peers", "", `cluster membership as "name=url,name=url,..." for -scenario cluster (daemons booted unsharded; ftload installs the rings)`)
	flag.StringVar(&cfg.join, "join", "", `member of -peers held out of the initial ring and joined mid-storm (-scenario cluster)`)
	flag.StringVar(&cfg.exec, "exec", "", `daemon command line for -scenario restart/partition-torture (ftload spawns, SIGKILLs and restarts it)`)
	flag.StringVar(&cfg.execFollower, "exec-follower", "", `follower daemon command line for -scenario partition-torture (SIGSTOPped for the partition, promoted after the kill)`)
	flag.StringVar(&cfg.execRejoin, "exec-rejoin", "", `deposed-leader rejoin command line for -scenario partition-torture (same journal as -exec, -follow pointing at the promoted follower)`)
	flag.StringVar(&cfg.follower, "follower", "", `follower base URL; after the run, require it to converge with -addr (same epochs, bit-identical phi)`)
	flag.StringVar(&cfg.obsJSON, "obs-json", "", `write a BENCH_service.json SLO artifact here: request p99 by route, fsync p99, replication lag p99 (needs -follower), compaction pause max, RPC and lookup p99s, lookups/s — scraped from /v1/stats after the run`)
	flag.StringVar(&cfg.RPCAddr, "rpc-addr", "127.0.0.1:9090", "host:port the storm goes to: the daemon's -rpc-addr listener (ftproxy's for -scenario cluster)")
	flag.IntVar(&cfg.RPCLookupBatch, "rpc-lookup-batch", loadgen.DefaultRPCLookupBatch, "lookups vectorized per LookupBatch frame (1 = scalar Lookup)")
	flag.IntVar(&cfg.RPCConns, "rpc-conns", 0, "pipelined connections per RPC client (0 = wire default)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "rng seed")
	flag.Parse()
	cfg.Spec.Kind = fleet.Kind(kind)

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ftload: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config, out io.Writer) error {
	if cfg.scenario == "restart" {
		return runRestart(cfg, out)
	}
	if cfg.scenario == "partition-torture" {
		return runFailover(cfg, out)
	}
	if cfg.scenario == "cluster" {
		return runCluster(cfg, out)
	}
	if cfg.scenario != "" {
		sc, ok := loadgen.ByName(cfg.scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q", cfg.scenario)
		}
		cfg.Scenario = sc
	} else {
		cfg.Scenario.Name = "custom"
	}
	cfg.ScrapeObs = cfg.obsJSON != ""
	res, err := loadgen.Run(cfg.Config)
	if err != nil {
		return err
	}
	report(out, cfg, res)
	if res.Transport > 0 || res.Errors > 0 {
		return fmt.Errorf("%d transport errors, %d operations failed with unexpected status",
			res.Transport, res.Errors)
	}
	if cfg.follower != "" {
		fv, err := loadgen.VerifyFollower(cfg.Addr, cfg.follower, cfg.Config.InstanceIDs(), 30*time.Second)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  follower     %s converged: %d/%d instances bit-identical (caught up in %v)\n",
			cfg.follower, fv.Instances, cfg.Instances, fv.Waited.Round(time.Millisecond))
	}
	if cfg.obsJSON != "" {
		if err := writeObsArtifact(cfg, res, out); err != nil {
			return err
		}
	}
	return nil
}

// writeObsArtifact distills the scraped server-side histograms (leader
// always, follower when -follower is set) into the BENCH_service.json
// SLO artifact CI diffs against its committed baseline.
func writeObsArtifact(cfg config, res loadgen.Result, out io.Writer) error {
	var followerObs *obs.Export
	if cfg.follower != "" {
		e, err := loadgen.FetchObs(cfg.follower)
		if err != nil {
			return err
		}
		followerObs = e
	}
	art := loadgen.BuildServiceArtifact(cfg.Scenario.Name, &res, res.Service, followerObs)
	return emitArtifact(cfg.obsJSON, art, out)
}

// emitArtifact writes one BENCH_service.json SLO artifact and echoes
// its values.
func emitArtifact(path string, art loadgen.ServiceArtifact, out io.Writer) error {
	if len(art.Benchmarks) == 0 {
		return fmt.Errorf("obs artifact is empty: the daemon exported no service histograms")
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  obs          %d service SLO values -> %s\n", len(art.Benchmarks), path)
	for _, b := range art.Benchmarks {
		if b.Unit == "ns" {
			fmt.Fprintf(out, "    %-28s %v\n", b.Name, time.Duration(b.Value).Round(time.Microsecond))
		} else {
			fmt.Fprintf(out, "    %-28s %.0f %s\n", b.Name, b.Value, b.Unit)
		}
	}
	return nil
}

// daemonProc owns the ftnetd child process of the restart scenario.
type daemonProc struct {
	argv []string
	cmd  *exec.Cmd
}

func (d *daemonProc) start() error {
	d.cmd = exec.Command(d.argv[0], d.argv[1:]...)
	d.cmd.Stdout = os.Stderr
	d.cmd.Stderr = os.Stderr
	return d.cmd.Start()
}

// kill SIGKILLs the daemon — no shutdown handler, no final flush: the
// only durability is what the journal's fsync policy already provided.
func (d *daemonProc) kill() error {
	if d.cmd == nil || d.cmd.Process == nil {
		return fmt.Errorf("daemon not running")
	}
	if err := d.cmd.Process.Kill(); err != nil {
		return err
	}
	d.cmd.Wait() // reap; the error (killed) is expected
	return nil
}

// stop SIGSTOPs the daemon: the process freezes with its sockets open
// — the partition-torture stand-in for a network partition (the watch
// stream stalls but nothing errors until the peer notices).
func (d *daemonProc) stop() error { return d.signal(syscall.SIGSTOP) }

// cont SIGCONTs a stopped daemon; it resumes where it froze.
func (d *daemonProc) cont() error { return d.signal(syscall.SIGCONT) }

func (d *daemonProc) signal(sig syscall.Signal) error {
	if d.cmd == nil || d.cmd.Process == nil {
		return fmt.Errorf("daemon not running")
	}
	return d.cmd.Process.Signal(sig)
}

func runRestart(cfg config, out io.Writer) error {
	if cfg.exec == "" {
		return fmt.Errorf(`-scenario restart needs -exec "ftnetd ..." to own the daemon lifecycle`)
	}
	d := &daemonProc{argv: strings.Fields(cfg.exec)}
	if len(d.argv) == 0 {
		return fmt.Errorf("-exec is empty after splitting")
	}
	if err := d.start(); err != nil {
		return fmt.Errorf("start daemon: %v", err)
	}
	defer d.kill()
	if err := loadgen.AwaitHealthy(cfg.Addr, 15*time.Second); err != nil {
		return err
	}

	res, err := loadgen.RunRestart(loadgen.RestartConfig{
		Config: cfg.Config,
		Kill:   d.kill,
		Start: func() (string, error) {
			return cfg.Addr, d.start()
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ftload: restart scenario against %s\n", cfg.Addr)
	fmt.Fprintf(out, "  storm        %d transitions acked (%d rejected, %d transport + %d other errors after the kill) in %v\n",
		res.Storm.Batches, res.Storm.Rejected, res.Storm.Transport, res.Storm.Errors, res.Storm.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  downtime     %v (SIGKILL to healthy)\n", res.Downtime.Round(time.Millisecond))
	fmt.Fprintf(out, "  recovered    %d/%d instances verified\n", res.Verified, cfg.Instances)
	for _, id := range sortedKeys(res.Acked) {
		fmt.Fprintf(out, "    %-20s acked epoch %-6d recovered epoch %d\n", id, res.Acked[id], res.Recovered[id])
	}
	return nil
}

// runFailover owns the partition-torture lifecycle: leader and
// follower children, SIGSTOP as the partition, SIGKILL as the leader
// failure, /v1/promote as the failover, and a rejoin child that must
// self-heal.
func runFailover(cfg config, out io.Writer) error {
	if cfg.exec == "" || cfg.execFollower == "" || cfg.execRejoin == "" {
		return fmt.Errorf(`-scenario partition-torture needs -exec (leader), -exec-follower and -exec-rejoin command lines`)
	}
	if cfg.follower == "" {
		return fmt.Errorf(`-scenario partition-torture needs -follower (the replica's base URL, matching -exec-follower)`)
	}
	leader := &daemonProc{argv: strings.Fields(cfg.exec)}
	replica := &daemonProc{argv: strings.Fields(cfg.execFollower)}
	rejoin := &daemonProc{argv: strings.Fields(cfg.execRejoin)}
	if err := leader.start(); err != nil {
		return fmt.Errorf("start leader: %v", err)
	}
	defer rejoin.kill() // the leader's journal is owned by rejoin after RestartOld
	defer leader.kill()
	if err := loadgen.AwaitHealthy(cfg.Addr, 15*time.Second); err != nil {
		return err
	}
	if err := replica.start(); err != nil {
		return fmt.Errorf("start follower: %v", err)
	}
	defer replica.kill()
	if err := loadgen.AwaitHealthy(cfg.follower, 15*time.Second); err != nil {
		return err
	}

	res, err := loadgen.RunFailover(loadgen.FailoverConfig{
		Config:       cfg.Config,
		FollowerAddr: cfg.follower,
		Partition:    replica.stop,
		KillLeader:   leader.kill,
		Heal:         replica.cont,
		RestartOld: func() (string, error) {
			return cfg.Addr, rejoin.start()
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ftload: partition-torture scenario against %s (promoted %s)\n", cfg.Addr, cfg.follower)
	fmt.Fprintf(out, "  storm        %d transitions acked (%d rejected, %d transport + %d other errors after the kill) in %v\n",
		res.Storm.Batches, res.Storm.Rejected, res.Storm.Transport, res.Storm.Errors, res.Storm.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  divergence   %v (partition to leader kill: acked writes no replica had)\n",
		res.DivergenceWindow.Round(time.Millisecond))
	fmt.Fprintf(out, "  failover     %v downtime (kill to writable), new term %d\n",
		res.FailoverDowntime.Round(time.Millisecond), res.Term)
	if res.Demotions > 0 {
		fmt.Fprintf(out, "  self-heal    divergent: deposed leader demoted %d time(s), discarded %d stale entries, 0 stale writes accepted\n",
			res.Demotions, res.Discarded)
	} else {
		fmt.Fprintf(out, "  self-heal    no divergence: the old leader recovered nothing past the fence and rejoined without a reset, 0 stale writes accepted\n")
	}
	fmt.Fprintf(out, "  converged    %d/%d instances bit-identical after rejoin\n", res.Converged, cfg.Instances)

	if cfg.obsJSON != "" {
		newLeader, err := loadgen.FetchObs(cfg.follower)
		if err != nil {
			return err
		}
		rejoined, err := loadgen.FetchObs(cfg.Addr)
		if err != nil {
			return err
		}
		art := loadgen.BuildServiceArtifact("partition-torture", nil, newLeader, rejoined)
		loadgen.AppendFailover(&art, res)
		if err := emitArtifact(cfg.obsJSON, art, out); err != nil {
			return err
		}
	}
	return nil
}

// runCluster owns the scale-out scenario: the daemons are already
// running (and unsharded); ftload installs the rings, storms the
// cluster through the ftproxy RPC front at -rpc-addr, joins -join
// mid-storm, rebalances, and verifies the handoff invariants.
func runCluster(cfg config, out io.Writer) error {
	if cfg.peers == "" || cfg.join == "" {
		return fmt.Errorf(`-scenario cluster needs -peers "name=url,..." and -join <member>`)
	}
	peers, err := shard.ParsePeers(cfg.peers)
	if err != nil {
		return err
	}
	res, err := loadgen.RunCluster(loadgen.ClusterConfig{
		Config: cfg.Config,
		Peers:  peers,
		Joiner: cfg.join,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ftload: cluster scenario across %d daemons (joiner %s)\n", len(peers), cfg.join)
	fmt.Fprintf(out, "  storm        %d transitions acked, %d lookups (%d rejected, %d transport + %d other errors) in %v\n",
		res.Storm.Batches, res.Storm.Lookups, res.Storm.Rejected, res.Storm.Transport, res.Storm.Errors,
		res.Storm.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "  rebalance    %d instances checkpoint-streamed in %v (max write-fence pause %v)\n",
		res.Migrated, res.RebalanceWall.Round(time.Millisecond), res.PauseMax.Round(time.Microsecond))
	fmt.Fprintf(out, "  routing      %d wrong-shard re-asks, %d staged-window retries — no manual retry logic\n",
		res.Redirects, res.StagedWaits)
	fmt.Fprintf(out, "  lookups      %.0f lookups/s through the %s RPC front under the rebalance (p99 %v)\n",
		res.Storm.LookupThroughput(), cfg.RPCAddr, res.Storm.LookupPercentile(99).Round(time.Microsecond))
	fmt.Fprintf(out, "  verified     %d/%d instances on their ring owner, epoch == acked watermark, phi bit-identical\n",
		res.Verified, cfg.Instances)
	if cfg.obsJSON != "" {
		art := loadgen.ServiceArtifact{Kind: "service", Scenario: "cluster"}
		loadgen.AppendCluster(&art, res)
		if err := emitArtifact(cfg.obsJSON, art, out); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func report(out io.Writer, cfg config, res loadgen.Result) {
	fmt.Fprintf(out, "ftload: %d ops in %v against %s (scenario %s)\n",
		res.Ops(), res.Elapsed.Round(time.Millisecond), cfg.Addr, cfg.Scenario.Name)
	fmt.Fprintf(out, "  fleet        %d x %s instances (h=%d k=%d), %d workers, eventfrac %.2f, batch %d\n",
		cfg.Instances, cfg.Spec.Kind, cfg.Spec.H, cfg.Spec.K, cfg.Workers,
		cfg.Scenario.EventFrac, cfg.Scenario.Batch)
	fmt.Fprintf(out, "  lookups      %d\n", res.Lookups)
	fmt.Fprintf(out, "  events       %d applied in %d transitions, %d rejected (budget/state enforcement)\n",
		res.Events, res.Batches, res.Rejected)
	fmt.Fprintf(out, "  errors       %d transport, %d unexpected-status\n", res.Transport, res.Errors)
	fmt.Fprintf(out, "  throughput   %.0f ops/s\n", res.Throughput())
	if res.Lookups > 0 {
		fmt.Fprintf(out, "  rpc lookups  %.0f lookups/s (LookupBatch of %d over %s)\n",
			res.LookupThroughput(), cfg.RPCLookupBatch, cfg.RPCAddr)
	}
	fmt.Fprintf(out, "  latency      p50 %v  p90 %v  p99 %v  max %v\n",
		res.Percentile(50), res.Percentile(90), res.Percentile(99), res.Percentile(100))
	if cfg.Scenario.Writers > 0 && len(res.LookupLatencies) > 0 {
		fmt.Fprintf(out, "  read latency p50 %v  p99 %v  (lookups under %d-writer storm)\n",
			res.LookupPercentile(50), res.LookupPercentile(99), cfg.Scenario.Writers)
	}
}
