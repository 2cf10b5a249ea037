package main

// sut.go is the only file of the benchmark that names identifiers of
// the system under test. Later changes to ftnet may not edit
// benchmark/, so every other file goes through the small surface
// below, and that surface is limited to what ROADMAP.md keeps: no
// Manager.Cache(), no ft.NewSnapshot/Apply, no string-keyed Manager
// twin. Program-side counters are read by name, so a counter that a
// later change removes reads as absent instead of breaking the build.

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/ft"
	"ftnet/internal/journal"
	"ftnet/internal/obs"
	"ftnet/internal/shard"
	"ftnet/internal/wire"
)

// Every instance is a debruijn m=2 h=12 k=8 network: 4096 target nodes
// on a 4104-node host.
const (
	specM   = 2
	specH   = 12
	specK   = 8
	nTarget = 1 << specH
	nHost   = nTarget + specK
)

var instanceSpec = fleet.Spec{Kind: fleet.KindDeBruijn, M: specM, H: specH, K: specK}

type event = fleet.Event

func faultEvent(node int) event  { return event{Kind: fleet.EventFault, Node: node} }
func repairEvent(node int) event { return event{Kind: fleet.EventRepair, Node: node} }

// oracle is the reference every timed answer is compared with: a
// mapping built from nothing but the fault set.
type oracle struct{ m *ft.Mapping }

func newOracle(faults []int) (oracle, error) {
	m, err := ft.NewMapping(nTarget, nHost, faults)
	return oracle{m}, err
}

func (o oracle) phi(x int) int { return o.m.Phi(x) }

// manager and instance are the rungs below the wire, which the ladder
// and the recovery check call in-process.
type manager struct{ m *fleet.Manager }

type instance struct{ in *fleet.Instance }

func (m manager) lookup(id []byte, x int) (int, uint64, error) { return m.m.LookupEpochBytes(id, x) }

func (m manager) lookupBatch(id []byte, xs, phis []int) (uint64, error) {
	return m.m.LookupBatchBytes(id, xs, phis)
}

func (m manager) apply(id []byte, events []event) (uint64, error) {
	res, err := m.m.EventBatchBytes(id, events)
	return res.Epoch, err
}

func (m manager) instance(id []byte) (instance, bool) {
	in, ok := m.m.GetBytes(id)
	return instance{in}, ok
}

func (m manager) close() error { return m.m.Close() }

func (in instance) lookup(x int) (int, uint64, error) { return in.in.LookupEpoch(x) }

func (in instance) lookupBatch(xs, phis []int) (uint64, error) { return in.in.LookupBatch(xs, phis) }

// daemon is one manager behind a wire server on a loopback listener,
// the in-process equivalent of one ftnetd -rpc-addr.
type daemon struct {
	name    string
	mgr     manager
	srv     *wire.Server
	addr    string
	journal string // path of the journal file, "" when none is attached
}

// startDaemon boots a manager and its wire server. A non-empty
// journalPath attaches a journal with the fsync-always policy.
func startDaemon(name, journalPath string) (*daemon, error) {
	opts := fleet.Options{Metrics: obs.New()}
	if journalPath != "" {
		jw, err := journal.Create(journalPath, journal.Options{Sync: journal.SyncAlways})
		if err != nil {
			return nil, err
		}
		opts.Journal = jw
	}
	mgr := fleet.NewManager(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	srv := wire.NewServer(mgr, wire.ServerOptions{Metrics: mgr.Metrics()})
	go srv.Serve(ln)
	return &daemon{name: name, mgr: manager{mgr}, srv: srv, addr: ln.Addr().String(), journal: journalPath}, nil
}

// close stops the server and closes the manager, which flushes,
// fsyncs and closes the journal.
func (d *daemon) close() error {
	d.srv.Close()
	return d.mgr.close()
}

// stack is what one workload talks to: one daemon, or three
// ring-sharded daemons behind a wire.Proxy, wired as
// wire/proxy_test.go:rpcCluster wires them.
type stack struct {
	daemons  []*daemon
	ring     *shard.Ring // nil when there is one daemon
	byName   map[string]*daemon
	proxy    *wire.Proxy
	proxyReg *obs.Registry
	addr     string // where clients dial
}

// startStack boots the stack. journalDir, when non-empty, gives every
// daemon a journal file in it.
func startStack(proxied bool, journalDir string) (*stack, error) {
	names := []string{"solo"}
	if proxied {
		names = []string{"a", "b", "c"}
	}
	s := &stack{byName: map[string]*daemon{}}
	for _, name := range names {
		path := ""
		if journalDir != "" {
			path = filepath.Join(journalDir, name+".wal")
		}
		d, err := startDaemon(name, path)
		if err != nil {
			s.close()
			return nil, err
		}
		s.daemons = append(s.daemons, d)
		s.byName[name] = d
	}
	if !proxied {
		s.addr = s.daemons[0].addr
		return s, nil
	}
	httpPeers, rpcPeers := map[string]string{}, map[string]string{}
	for _, d := range s.daemons {
		httpPeers[d.name] = "http://daemon-" + d.name + ".example:8100"
		rpcPeers[d.name] = d.addr
	}
	for _, d := range s.daemons {
		d.mgr.m.SetTopology(d.name, httpPeers, 0)
	}
	s.ring = shard.New(names, 0)
	s.proxyReg = obs.New()
	s.proxy = wire.NewProxy(wire.ProxyOptions{RPCPeers: rpcPeers, HTTPPeers: httpPeers, Metrics: s.proxyReg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	go s.proxy.Serve(ln)
	s.addr = ln.Addr().String()
	return s, nil
}

// owner returns the daemon that holds id.
func (s *stack) owner(id []byte) *daemon {
	if s.ring == nil {
		return s.daemons[0]
	}
	return s.byName[s.ring.OwnerBytes(id)]
}

func (s *stack) create(id string) error {
	_, err := s.owner([]byte(id)).mgr.m.Create(id, instanceSpec)
	return err
}

func (s *stack) close() error {
	var first error
	if s.proxy != nil {
		s.proxy.Close()
	}
	for _, d := range s.daemons {
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// client is the one wire.Client a workload's callers share.
type client struct{ c *wire.Client }

func dial(addr string, conns int) (client, error) {
	c, err := wire.Dial(addr, wire.Options{Conns: conns, Timeout: 10 * time.Second})
	return client{c}, err
}

func (c client) close() { c.c.Close() }

func (c client) lookup(id string, x int) (int, uint64, error) { return c.c.Lookup(id, x) }

func (c client) lookupBatch(id string, xs, phis []int) (uint64, error) {
	return c.c.LookupBatch(id, xs, phis)
}

func (c client) applyBatch(id string, events []event) (uint64, error) {
	res, err := c.c.ApplyBatch(id, events)
	return res.Epoch, err
}

// recoverJournal replays path into a fresh manager, which the caller
// closes.
func recoverJournal(path string) (m manager, records int, err error) {
	m = manager{fleet.NewManager(fleet.Options{})}
	st, err := m.m.RecoverFile(path)
	if err != nil {
		m.close()
		return manager{}, 0, err
	}
	return m, st.Records, nil
}

// statsByName flattens Manager.Stats(), marshalled to JSON, into
// dotted names ("cache.hits", "journal.syncs"). A name the program no
// longer reports is simply not in the map.
func (m manager) statsByName(prefix string, into map[string]float64) {
	raw, err := json.Marshal(m.m.Stats())
	if err != nil {
		return
	}
	var tree any
	if json.Unmarshal(raw, &tree) != nil {
		return
	}
	var walk func(name string, v any)
	walk = func(name string, v any) {
		switch t := v.(type) {
		case map[string]any:
			for k, c := range t {
				walk(name+"."+k, c)
			}
		case float64:
			into[name] += t
		}
	}
	walk(prefix, tree)
}

// exportByName flattens a registry snapshot into names: "name" for a
// counter or gauge, "name:count" and "name:sum" (nanoseconds, the unit
// Observe was given) for a histogram. Labelled children of one family
// are summed.
func exportByName(reg *obs.Registry, into map[string]float64) {
	e := reg.Export()
	for _, c := range e.Counters {
		into[c.Name] += float64(c.Value)
	}
	for _, g := range e.Gauges {
		into[g.Name] += float64(g.Value)
	}
	for _, h := range e.Histograms {
		into[h.Name+":count"] += float64(h.Count)
		into[h.Name+":sum"] += h.SumNS
	}
}

// snapshot reads every program-side counter of the stack by name,
// summed over its daemons: the managers' Stats() under "stats.", the
// daemons' and the proxy's registries under their metric names.
func (s *stack) snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, d := range s.daemons {
		d.mgr.statsByName("stats", out)
		exportByName(d.mgr.m.Metrics(), out)
	}
	if s.proxyReg != nil {
		exportByName(s.proxyReg, out)
	}
	return out
}

// observeNS times Histogram.Observe on a private registry.
func observeNS(n int) float64 {
	h := obs.New().Histogram("bench_probe_seconds", "benchmark probe")
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i&1023) * time.Microsecond)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// subscribeLag consumes the manager's commit stream until stop is
// closed and then sends, for every live entry it saw, receive time
// minus the entry's commit timestamp in nanoseconds.
func (m manager) subscribeLag(stop <-chan struct{}) (<-chan []int64, error) {
	// The buffer absorbs about half a second of bursts at the full
	// write rate; a subscriber that still falls behind is closed by the
	// log, and the lags gathered until then are what it reports.
	sub, err := m.m.Subscribe(m.m.NextSeq(), 1<<16)
	if err != nil {
		return nil, err
	}
	out := make(chan []int64, 1)
	go func() {
		defer sub.Close()
		var got []int64
		for {
			select {
			case e, ok := <-sub.C:
				if !ok {
					out <- got
					return
				}
				if e.At != 0 {
					got = append(got, time.Now().UnixNano()-e.At)
				}
			case <-stop:
				out <- got
				return
			}
		}
	}()
	return out, nil
}

// codecProbe is one LookupBatch request and its response.
type codecProbe struct {
	req     wire.Request
	resp    wire.Response
	reqBuf  []byte
	respBuf []byte
}

func newCodecProbe(id string, xs, phis []int) *codecProbe {
	return &codecProbe{
		req:  wire.Request{Type: wire.MsgLookupBatch, Seq: 7, ID: id, Xs: xs},
		resp: wire.Response{Type: wire.MsgLookupBatch, Seq: 7, Epoch: 1, Phis: phis},
	}
}

// roundTrip encodes and decodes the request and the response once
// each.
func (p *codecProbe) roundTrip() (err error) {
	if p.reqBuf, err = wire.AppendRequest(p.reqBuf[:0], p.req); err != nil {
		return err
	}
	if _, err = wire.DecodeRequest(p.reqBuf); err != nil {
		return err
	}
	if p.respBuf, err = wire.AppendResponse(p.respBuf[:0], p.resp); err != nil {
		return err
	}
	_, err = wire.DecodeResponse(p.respBuf)
	return err
}

// encodeLookupBatch appends the canonical payload of one LookupBatch
// request, so two frame streams can be compared byte for byte.
func encodeLookupBatch(dst []byte, seq uint64, id string, xs []int) ([]byte, error) {
	return wire.AppendRequest(dst, wire.Request{Type: wire.MsgLookupBatch, Seq: seq, ID: id, Xs: xs})
}

func transitionRecord(epoch uint64, faults []int) journal.Record {
	return journal.Record{Op: journal.OpTransition, ID: "inst-000", Epoch: epoch, Applied: burstWidth, Faults: faults}
}

// encodeRecord encodes one transition record into buf.
func encodeRecord(buf []byte, epoch uint64, sortedFaults []int) ([]byte, error) {
	return journal.AppendRecord(buf[:0], transitionRecord(epoch, sortedFaults))
}

// appendPass appends transition records from one appender with the
// fsync-always policy to a fresh journal at path, until n records or
// the budget is spent. It reports the mean time of one append and, from
// the writer's own counters, bytes and fsyncs per record.
func appendPass(path string, n int, budget time.Duration, sortedFaults []int) (meanNS, bytesPerRecord, syncsPerRecord float64, err error) {
	w, err := journal.Create(path, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.Remove(path)
	start := time.Now()
	done := 0
	for done < n && (done%64 != 0 || time.Since(start) < budget) {
		if err = w.Append(transitionRecord(uint64(done+1), sortedFaults)); err != nil {
			w.Close()
			return 0, 0, 0, err
		}
		done++
	}
	elapsed := time.Since(start)
	st := w.Stats()
	if err = w.Close(); err != nil {
		return 0, 0, 0, err
	}
	return float64(elapsed.Nanoseconds()) / float64(done),
		float64(st.Bytes) / float64(st.Records), float64(st.Syncs) / float64(st.Records), nil
}

// ringOwner is shard.Ring.OwnerBytes on a three-member ring.
func ringOwner() func(id []byte) string {
	return shard.New([]string{"a", "b", "c"}, 0).OwnerBytes
}
