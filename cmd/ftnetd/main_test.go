package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/fleet/fleettest"
	"ftnet/internal/ft"
)

func do(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d (body %s)", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
}

// TestDaemonEndToEnd exercises the full create -> fault -> lookup ->
// repair cycle over HTTP and cross-checks every answer against the
// library's one-shot reconfiguration.
func TestDaemonEndToEnd(t *testing.T) {
	base := fleettest.Start(t, fleet.DaemonConfig{}, nil).URL

	// Create a B^2_{2,4} instance.
	var info fleet.InstanceInfo
	do(t, "POST", base+"/v1/instances",
		map[string]any{"id": "prod", "spec": fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}},
		http.StatusCreated, &info)
	if info.NHost != 18 || info.SparesFree != 2 {
		t.Fatalf("unexpected instance info %+v", info)
	}

	// Fault nodes 3 and 11.
	var res fleet.EventResult
	for i, n := range []int{3, 11} {
		do(t, "POST", base+"/v1/instances/prod/events",
			fleet.Event{Kind: fleet.EventFault, Node: n}, http.StatusOK, &res)
		if res.NumFaults != i+1 {
			t.Fatalf("event %d: %+v", i, res)
		}
	}

	// Every lookup must match ft.NewMapping.
	want, err := ft.NewMapping(16, 18, []int{3, 11})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 16; x++ {
		var pr struct{ X, Phi int }
		do(t, "GET", fmt.Sprintf("%s/v1/instances/prod/phi?x=%d", base, x), nil, http.StatusOK, &pr)
		if pr.Phi != want.Phi(x) {
			t.Fatalf("phi(%d) = %d, want %d", x, pr.Phi, want.Phi(x))
		}
	}

	// The full slice agrees too.
	var full struct{ Phi []int }
	do(t, "GET", base+"/v1/instances/prod/phi", nil, http.StatusOK, &full)
	for x, phi := range full.Phi {
		if phi != want.Phi(x) {
			t.Fatalf("slice phi(%d) = %d, want %d", x, phi, want.Phi(x))
		}
	}

	// Repair node 3: back to the single-fault mapping.
	do(t, "POST", base+"/v1/instances/prod/events",
		fleet.Event{Kind: fleet.EventRepair, Node: 3}, http.StatusOK, &res)
	if res.NumFaults != 1 {
		t.Fatalf("after repair: %+v", res)
	}
	want, _ = ft.NewMapping(16, 18, []int{11})
	var pr struct{ X, Phi int }
	do(t, "GET", base+"/v1/instances/prod/phi?x=11", nil, http.StatusOK, &pr)
	if pr.Phi != want.Phi(11) {
		t.Fatalf("after repair phi(11) = %d, want %d", pr.Phi, want.Phi(11))
	}

	// Instance snapshot and listing.
	do(t, "GET", base+"/v1/instances/prod", nil, http.StatusOK, &info)
	if info.Epoch != 3 || len(info.Faults) != 1 || info.Faults[0] != 11 {
		t.Fatalf("snapshot %+v", info)
	}
	var list struct{ Instances []string }
	do(t, "GET", base+"/v1/instances", nil, http.StatusOK, &list)
	if len(list.Instances) != 1 || list.Instances[0] != "prod" {
		t.Fatalf("list %+v", list)
	}

	// Stats and health.
	var st fleet.Stats
	do(t, "GET", base+"/v1/stats", nil, http.StatusOK, &st)
	if st.Instances != 1 || st.Events != 3 || st.Lookups == 0 {
		t.Fatalf("stats %+v", st)
	}
	do(t, "GET", base+"/healthz", nil, http.StatusOK, nil)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"ftnet_instances 1", "ftnet_events_total 3", "ftnet_lookups_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Delete.
	do(t, "DELETE", base+"/v1/instances/prod", nil, http.StatusNoContent, nil)
	do(t, "GET", base+"/v1/instances/prod", nil, http.StatusNotFound, nil)
}

// TestDaemonEventBatch drives the events:batch endpoint end to end:
// an atomic burst advances the epoch exactly once, a partially-invalid
// burst changes nothing, and /v1/stats reports the rejection causes —
// and, there being no mapping cache, no cache section or ftnet_cache_
// metric family.
func TestDaemonEventBatch(t *testing.T) {
	base := fleettest.Start(t, fleet.DaemonConfig{}, nil).URL
	do(t, "POST", base+"/v1/instances",
		map[string]any{"id": "prod", "spec": fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 3}},
		http.StatusCreated, nil)

	// A three-fault burst: one transition, epoch 1.
	var res fleet.EventResult
	do(t, "POST", base+"/v1/instances/prod/events:batch",
		fleet.BatchRequest{Events: []fleet.Event{
			{Kind: fleet.EventFault, Node: 3},
			{Kind: fleet.EventFault, Node: 11},
			{Kind: fleet.EventFault, Node: 7},
		}}, http.StatusOK, &res)
	if res.Epoch != 1 || res.NumFaults != 3 || res.Applied != 3 {
		t.Fatalf("burst result %+v", res)
	}
	want, err := ft.NewMapping(16, 19, []int{3, 7, 11})
	if err != nil {
		t.Fatal(err)
	}
	var pr struct{ X, Phi int }
	do(t, "GET", base+"/v1/instances/prod/phi?x=5", nil, http.StatusOK, &pr)
	if pr.Phi != want.Phi(5) {
		t.Fatalf("phi(5) = %d, want %d", pr.Phi, want.Phi(5))
	}

	// A burst that would exceed the budget rejects whole: 409, no change.
	do(t, "POST", base+"/v1/instances/prod/events:batch",
		fleet.BatchRequest{Events: []fleet.Event{
			{Kind: fleet.EventRepair, Node: 3},
			{Kind: fleet.EventFault, Node: 0},
			{Kind: fleet.EventFault, Node: 1},
			{Kind: fleet.EventFault, Node: 2},
		}}, http.StatusConflict, nil)
	var info fleet.InstanceInfo
	do(t, "GET", base+"/v1/instances/prod", nil, http.StatusOK, &info)
	if info.Epoch != 1 || len(info.Faults) != 3 {
		t.Fatalf("rejected burst changed state: %+v", info)
	}

	// Empty and malformed batches are 400.
	do(t, "POST", base+"/v1/instances/prod/events:batch",
		fleet.BatchRequest{}, http.StatusBadRequest, nil)
	// Unknown instance is 404.
	do(t, "POST", base+"/v1/instances/ghost/events:batch",
		fleet.BatchRequest{Events: []fleet.Event{{Kind: fleet.EventFault, Node: 0}}},
		http.StatusNotFound, nil)

	// Stats carry the batch counter and the rejection causes, and no
	// "cache" key.
	var raw map[string]json.RawMessage
	do(t, "GET", base+"/v1/stats", nil, http.StatusOK, &raw)
	if _, ok := raw["cache"]; ok {
		t.Errorf("stats still carry a cache section: %s", raw["cache"])
	}
	var st fleet.Stats
	do(t, "GET", base+"/v1/stats", nil, http.StatusOK, &st)
	if st.Batches != 1 || st.Events != 3 {
		t.Errorf("batches/events = %d/%d, want 1/3", st.Batches, st.Events)
	}
	if st.RejectedBy.Budget != 1 || st.Rejected != 1 {
		t.Errorf("rejected = %d by %+v, want budget 1", st.Rejected, st.RejectedBy)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ftnet_event_batches_total 1",
		`ftnet_events_rejected_by_cause_total{cause="budget"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(string(metrics), "ftnet_cache_") {
		t.Errorf("metrics still carry an ftnet_cache_ family")
	}
}

// TestDaemonRemovedCacheFlags: there is no mapping cache to configure,
// and a flag for one must fail loudly — the flag package's usage error
// and exit status 2 — not be silently accepted. The test re-executes its
// own binary as ftnetd.
func TestDaemonRemovedCacheFlags(t *testing.T) {
	if args := os.Getenv("FTNETD_TEST_ARGS"); args != "" {
		os.Args = append([]string{"ftnetd"}, strings.Fields(args)...)
		main()
		os.Exit(0) // unreachable when the flag is rejected
	}
	for _, args := range []string{"-cache 1", "-cache-admission=false"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDaemonRemovedCacheFlags$")
		cmd.Env = append(os.Environ(), "FTNETD_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("ftnetd %s: err %v, want exit status 2 (output %s)", args, err, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: -cache") {
			t.Errorf("ftnetd %s: output lacks the flag package's usage error: %s", args, out)
		}
	}
}

// TestDaemonJournalFsyncFlagParsing pins the flag surface: bad -fsync
// values fail the boot, good ones boot with the right policy.
func TestDaemonJournalFsyncFlagParsing(t *testing.T) {
	boot := func(path, mode string) (*fleet.Daemon, error) {
		return fleet.NewDaemon(fleet.DaemonConfig{Journal: path, Fsync: mode, FsyncInterval: 10 * time.Millisecond, Logf: t.Logf})
	}
	if _, err := boot(filepath.Join(t.TempDir(), "j"), "sometimes"); err == nil {
		t.Error("NewDaemon accepted -fsync sometimes")
	}
	for _, mode := range []string{"always", "interval", "never"} {
		d, err := boot(filepath.Join(t.TempDir(), "j"), mode)
		if err != nil {
			t.Errorf("-fsync %s: %v", mode, err)
			continue
		}
		d.Manager().Close()
	}
	// No -journal: durability off, no writer — whatever -fsync says.
	d, err := boot("", "sometimes")
	if err != nil || d.Manager().CommitLog().Writer() != nil {
		t.Errorf("empty -journal: err %v; want a daemon with no writer", err)
	}
}

// TestDaemonJournalCrashRecovery is the acceptance check at daemon
// granularity: drive a journaled daemon through creates, bursts,
// repairs and a delete, crash it the way SIGKILL does (with -fsync
// always everything acknowledged is already on disk), reboot it over the same journal, and require every
// instance back at its exact pre-kill epoch, fault set, and Phi —
// bit-identical against both the live pre-crash state and a fresh
// ft.NewMapping recomputation. A third boot after scribbling garbage
// on the tail must log, truncate, and preserve the same state.
func TestDaemonJournalCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.wal")
	n1 := fleettest.Start(t, fleet.DaemonConfig{Journal: path}, nil)
	mgr1, base := n1.Manager(), n1.URL

	do(t, "POST", base+"/v1/instances",
		map[string]any{"id": "prod", "spec": fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 3}},
		http.StatusCreated, nil)
	do(t, "POST", base+"/v1/instances",
		map[string]any{"id": "se", "spec": fleet.Spec{Kind: fleet.KindShuffle, H: 4, K: 2}},
		http.StatusCreated, nil)
	do(t, "POST", base+"/v1/instances",
		map[string]any{"id": "scratch", "spec": fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 3, K: 1}},
		http.StatusCreated, nil)

	do(t, "POST", base+"/v1/instances/prod/events:batch",
		fleet.BatchRequest{Events: []fleet.Event{
			{Kind: fleet.EventFault, Node: 3},
			{Kind: fleet.EventFault, Node: 11},
			{Kind: fleet.EventFault, Node: 7},
		}}, http.StatusOK, nil)
	do(t, "POST", base+"/v1/instances/prod/events",
		fleet.Event{Kind: fleet.EventRepair, Node: 7}, http.StatusOK, nil)
	do(t, "POST", base+"/v1/instances/se/events",
		fleet.Event{Kind: fleet.EventFault, Node: 2}, http.StatusOK, nil)
	// A rejected burst must leave no trace in the journal.
	do(t, "POST", base+"/v1/instances/se/events:batch",
		fleet.BatchRequest{Events: []fleet.Event{
			{Kind: fleet.EventFault, Node: 0},
			{Kind: fleet.EventFault, Node: 1},
			{Kind: fleet.EventFault, Node: 3},
		}}, http.StatusConflict, nil)
	do(t, "DELETE", base+"/v1/instances/scratch", nil, http.StatusNoContent, nil)

	// SIGKILL: no drain, no flush beyond what -fsync always already
	// guaranteed per acknowledged request.
	n2 := n1.Reboot(t, nil)
	mgr2 := n2.Manager()
	checkSameFleet(t, mgr1, mgr2)
	if _, ok := mgr2.Get("scratch"); ok {
		t.Error("deleted instance resurrected by recovery")
	}

	// The recovered daemon keeps serving and journaling: one more event
	// must land on the recovered epoch chain.
	var res fleet.EventResult
	do(t, "POST", n2.URL+"/v1/instances/prod/events",
		fleet.Event{Kind: fleet.EventFault, Node: 0}, http.StatusOK, &res)
	if want := mustSnap(t, mgr1, "prod").Epoch() + 1; res.Epoch != want {
		t.Errorf("post-recovery epoch %d, want %d", res.Epoch, want)
	}

	// Stats surface the journal and recovery counters.
	var st fleet.Stats
	do(t, "GET", n2.URL+"/v1/stats", nil, http.StatusOK, &st)
	if !st.Journal.Enabled || st.Journal.Records == 0 {
		t.Errorf("journal stats %+v, want enabled with fresh records", st.Journal)
	}
	// 7 records survived the crash: 3 creates, 3 accepted transitions,
	// 1 delete — the rejected burst appended nothing.
	if st.Journal.Recovery == nil || st.Journal.Recovery.Records != 7 || st.Journal.Recovery.Torn {
		t.Errorf("recovery stats %+v, want 7 clean records", st.Journal.Recovery)
	}
	// Replay verified all 3 transitions and built one snapshot for each
	// instance they left standing — prod's two cost one build.
	if rec := st.Journal.Recovery; rec != nil && (rec.Transitions != 3 || rec.Built != 2 || rec.Built > st.Instances) {
		t.Errorf("recovery replayed %d transitions and built %d snapshots for %d instances, want 3, 2 and 2",
			rec.Transitions, rec.Built, st.Instances)
	}
	resp, err := http.Get(n2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"ftnet_journal_enabled 1", "ftnet_journal_recovered_records 7", "ftnet_journal_last_epoch"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	n2.Crash()

	// Crash No. 2, this time with a torn tail: garbage appended to the
	// file (a record the "crash" cut mid-write). Boot three must drop
	// exactly the garbage and keep every complete record.
	sizeBefore := fileSize(t, path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe})
	f.Close()

	mgr3 := n2.Reboot(t, nil).Manager()
	checkSameFleet(t, mgr2, mgr3)
	if got := fileSize(t, path); got != sizeBefore {
		t.Errorf("torn tail not truncated: file %d bytes, want %d", got, sizeBefore)
	}
	if rec := mgr3.Stats().Journal.Recovery; rec == nil || !rec.Torn || rec.Records != 8 {
		t.Errorf("boot over torn tail reported %+v, want Torn with 8 records", rec)
	}
}

// checkSameFleet asserts two managers hold bit-identical fleets:
// same ids, and per instance the same epoch, fault set, and full phi
// slice, with the mapping re-verified against ft.NewMapping.
func checkSameFleet(t *testing.T, want, got *fleet.Manager) {
	t.Helper()
	wids, gids := want.List(), got.List()
	if fmt.Sprint(wids) != fmt.Sprint(gids) {
		t.Fatalf("instances %v, want %v", gids, wids)
	}
	for _, id := range wids {
		ws := mustSnap(t, want, id)
		gs := mustSnap(t, got, id)
		if ws.Epoch() != gs.Epoch() {
			t.Errorf("%s: epoch %d, want %d", id, gs.Epoch(), ws.Epoch())
		}
		wf, gf := ws.Faults(), gs.Faults()
		if fmt.Sprint(wf) != fmt.Sprint(gf) {
			t.Errorf("%s: faults %v, want %v", id, gf, wf)
		}
		fresh, err := ft.NewMapping(ws.NTarget(), ws.NHost(), wf)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for x := 0; x < ws.NTarget(); x++ {
			if ws.Phi(x) != gs.Phi(x) || gs.Phi(x) != fresh.Phi(x) {
				t.Fatalf("%s: phi(%d): live %d, recovered %d, recomputed %d",
					id, x, ws.Phi(x), gs.Phi(x), fresh.Phi(x))
			}
		}
	}
}

func mustSnap(t *testing.T, m *fleet.Manager, id string) *ft.Snapshot {
	t.Helper()
	in, ok := m.Get(id)
	if !ok {
		t.Fatalf("instance %s missing", id)
	}
	return in.Snapshot()
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestDaemonCompactEndpoint drives POST /v1/compact end to end over a
// journaled daemon: the journal shrinks to checkpoint+suffix, a
// restart replays the bounded log to identical state, and the commit
// counters surface the compaction.
func TestDaemonCompactEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.wal")
	n1 := fleettest.Start(t, fleet.DaemonConfig{Journal: path}, nil)
	mgr1, base := n1.Manager(), n1.URL

	do(t, "POST", base+"/v1/instances",
		map[string]any{"id": "prod", "spec": fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 3}},
		http.StatusCreated, nil)
	for i, n := range []int{3, 11, 7, 3, 11} {
		kind := fleet.EventFault
		if i >= 3 {
			kind = fleet.EventRepair
		}
		do(t, "POST", base+"/v1/instances/prod/events",
			fleet.Event{Kind: kind, Node: n}, http.StatusOK, nil)
	}

	var cs fleet.CompactStats
	do(t, "POST", base+"/v1/compact", nil, http.StatusOK, &cs)
	if cs.Instances != 1 || cs.Seq != 6 {
		t.Fatalf("compact stats %+v, want 1 instance at seq 6", cs)
	}
	// One event after the compaction: the suffix.
	do(t, "POST", base+"/v1/instances/prod/events",
		fleet.Event{Kind: fleet.EventFault, Node: 0}, http.StatusOK, nil)

	var st struct {
		Commit struct {
			Compactions uint64 `json:"compactions"`
			LastSeq     uint64 `json:"last_seq"`
			Base        uint64 `json:"base"`
		} `json:"commit"`
	}
	do(t, "GET", base+"/v1/stats", nil, http.StatusOK, &st)
	if st.Commit.Compactions != 1 || st.Commit.Base != 7 || st.Commit.LastSeq != 7 {
		t.Errorf("commit stats after compaction: %+v", st.Commit)
	}
	mgr2 := n1.Reboot(t, nil).Manager()
	checkSameFleet(t, mgr1, mgr2)
	// Bounded replay: seq marker + 1 checkpoint + 1 suffix event.
	if rec := mgr2.Stats().Journal.Recovery; rec == nil || rec.Records != 3 || rec.Checkpoints != 1 {
		t.Errorf("recovery after compaction: %+v, want 3 records incl. 1 checkpoint", rec)
	}
}

func TestDaemonErrorPaths(t *testing.T) {
	base := fleettest.Start(t, fleet.DaemonConfig{}, nil).URL

	// Malformed body / bad spec.
	req, _ := http.NewRequest("POST", base+"/v1/instances", strings.NewReader("{"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed create = %d, want 400", resp.StatusCode)
	}
	do(t, "POST", base+"/v1/instances",
		map[string]any{"id": "x", "spec": fleet.Spec{Kind: "torus", H: 4}},
		http.StatusBadRequest, nil)

	// Unknown instance everywhere.
	do(t, "GET", base+"/v1/instances/ghost", nil, http.StatusNotFound, nil)
	do(t, "GET", base+"/v1/instances/ghost/phi?x=0", nil, http.StatusNotFound, nil)
	do(t, "POST", base+"/v1/instances/ghost/events",
		fleet.Event{Kind: fleet.EventFault, Node: 0}, http.StatusNotFound, nil)
	do(t, "DELETE", base+"/v1/instances/ghost", nil, http.StatusNotFound, nil)

	// Budget exhaustion is a conflict, duplicate create too.
	do(t, "POST", base+"/v1/instances",
		map[string]any{"id": "x", "spec": fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 1}},
		http.StatusCreated, nil)
	do(t, "POST", base+"/v1/instances",
		map[string]any{"id": "x", "spec": fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 1}},
		http.StatusConflict, nil)
	do(t, "POST", base+"/v1/instances/x/events",
		fleet.Event{Kind: fleet.EventFault, Node: 0}, http.StatusOK, nil)
	do(t, "POST", base+"/v1/instances/x/events",
		fleet.Event{Kind: fleet.EventFault, Node: 1}, http.StatusConflict, nil)

	// Bad lookup arguments.
	do(t, "GET", base+"/v1/instances/x/phi?x=abc", nil, http.StatusBadRequest, nil)
	do(t, "GET", base+"/v1/instances/x/phi?x=99", nil, http.StatusBadRequest, nil)
}

// TestPprofMux pins the -pprof-addr contract: the profiling handlers
// live on their own mux (index and the named profiles answer 200 with
// recognizable content), and the API handler serves none of them — so
// enabling profiling never widens the API surface.
func TestPprofMux(t *testing.T) {
	pp := httptest.NewServer(pprofMux())
	defer pp.Close()
	for path, want := range map[string]string{
		"/debug/pprof/":          "Types of profiles available",
		"/debug/pprof/cmdline":   "ftnetd",
		"/debug/pprof/goroutine": "goroutine",
	} {
		resp, err := http.Get(pp.URL + path + "?debug=1")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if path != "/debug/pprof/cmdline" && !strings.Contains(string(raw), want) {
			t.Errorf("GET %s: body %q does not mention %q", path, raw, want)
		}
	}

	api := fleettest.Start(t, fleet.DaemonConfig{}, nil)
	resp, err := http.Get(api.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("API mux serves /debug/pprof/ with %d, want 404", resp.StatusCode)
	}
}
