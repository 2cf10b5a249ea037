package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// This file drives a whole daemon over its JSON API, the way a curl
// user of ftnetd does: NewDaemon, Run, and HTTP requests.

// do sends one JSON request and requires wantCode, decoding the answer
// into out when out is not nil.
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

// phiDoor is checkPhi's door through the JSON API: GET .../phi?x=.
func phiDoor(t *testing.T, base, id string) func(x int) (int, error) {
	return func(x int) (int, error) {
		var pr struct{ Phi int }
		do(t, "GET", fmt.Sprintf("%s/v1/instances/%s/phi?x=%d", base, id, x), nil, http.StatusOK, &pr)
		return pr.Phi, nil
	}
}

// TestDaemonEndToEnd exercises the full create -> fault -> lookup ->
// repair cycle over HTTP and cross-checks every answer against the
// library's one-shot reconfiguration.
func TestDaemonEndToEnd(t *testing.T) {
	base, _ := runDaemon(t, bootDaemon(t, DaemonConfig{}), nil, Plane{})

	// Create a B^2_{2,4} instance.
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2}
	var info InstanceInfo
	do(t, "POST", base+"/v1/instances", createRequest{ID: "prod", Spec: spec}, http.StatusCreated, &info)
	if info.NHost != 18 || info.SparesFree != 2 {
		t.Fatalf("unexpected instance info %+v", info)
	}

	// Fault nodes 3 and 11.
	var res EventResult
	for i, n := range []int{3, 11} {
		do(t, "POST", base+"/v1/instances/prod/events",
			Event{Kind: EventFault, Node: n}, http.StatusOK, &res)
		if res.NumFaults != i+1 {
			t.Fatalf("event %d: %+v", i, res)
		}
	}

	// Every lookup must match ft.NewMapping.
	checkPhi(t, spec, []int{3, 11}, phiDoor(t, base, "prod"))

	// The full slice agrees too.
	var full struct{ Phi []int }
	do(t, "GET", base+"/v1/instances/prod/phi", nil, http.StatusOK, &full)
	checkPhi(t, spec, []int{3, 11}, func(x int) (int, error) { return full.Phi[x], nil })

	// Repair node 3: back to the single-fault mapping.
	do(t, "POST", base+"/v1/instances/prod/events",
		Event{Kind: EventRepair, Node: 3}, http.StatusOK, &res)
	if res.NumFaults != 1 {
		t.Fatalf("after repair: %+v", res)
	}
	checkPhi(t, spec, []int{11}, phiDoor(t, base, "prod"))

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
	var st Stats
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
	base, _ := runDaemon(t, bootDaemon(t, DaemonConfig{}), nil, Plane{})
	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3}
	do(t, "POST", base+"/v1/instances", createRequest{ID: "prod", Spec: spec}, http.StatusCreated, nil)

	// A three-fault burst: one transition, epoch 1.
	var res EventResult
	do(t, "POST", base+"/v1/instances/prod/events:batch",
		batchRequest{Events: []Event{
			{Kind: EventFault, Node: 3},
			{Kind: EventFault, Node: 11},
			{Kind: EventFault, Node: 7},
		}}, http.StatusOK, &res)
	if res.Epoch != 1 || res.NumFaults != 3 || res.Applied != 3 {
		t.Fatalf("burst result %+v", res)
	}
	checkPhi(t, spec, []int{3, 7, 11}, phiDoor(t, base, "prod"))

	// A burst that would exceed the budget rejects whole: 409, no change.
	do(t, "POST", base+"/v1/instances/prod/events:batch",
		batchRequest{Events: []Event{
			{Kind: EventRepair, Node: 3},
			{Kind: EventFault, Node: 0},
			{Kind: EventFault, Node: 1},
			{Kind: EventFault, Node: 2},
		}}, http.StatusConflict, nil)
	var info InstanceInfo
	do(t, "GET", base+"/v1/instances/prod", nil, http.StatusOK, &info)
	if info.Epoch != 1 || len(info.Faults) != 3 {
		t.Fatalf("rejected burst changed state: %+v", info)
	}

	// Empty and malformed batches are 400.
	do(t, "POST", base+"/v1/instances/prod/events:batch",
		batchRequest{}, http.StatusBadRequest, nil)
	// Unknown instance is 404.
	do(t, "POST", base+"/v1/instances/ghost/events:batch",
		batchRequest{Events: []Event{{Kind: EventFault, Node: 0}}},
		http.StatusNotFound, nil)

	// Stats carry the batch counter and the rejection causes, and no
	// "cache" key.
	var raw map[string]json.RawMessage
	do(t, "GET", base+"/v1/stats", nil, http.StatusOK, &raw)
	if _, ok := raw["cache"]; ok {
		t.Errorf("stats still carry a cache section: %s", raw["cache"])
	}
	var st Stats
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

// TestDaemonJournalFsyncFlagParsing pins the policies ftnetd's -fsync
// flag passes through DaemonConfig.Fsync: a bad one fails the boot, the
// three good ones boot.
func TestDaemonJournalFsyncFlagParsing(t *testing.T) {
	boot := func(path, mode string) (*Daemon, error) {
		return NewDaemon(DaemonConfig{Journal: path, Fsync: mode, FsyncInterval: 10 * time.Millisecond, Logf: t.Logf})
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
		d.mgr.Close()
	}
	// No -journal: durability off, no writer — whatever -fsync says.
	d, err := boot("", "sometimes")
	if err != nil || d.mgr.pipe.log.Writer() != nil {
		t.Errorf("empty -journal: err %v; want a daemon with no writer", err)
	}
}

// TestDaemonJournalCrashRecovery is the acceptance check at daemon
// granularity: drive a journaled daemon through creates, bursts,
// repairs and a delete, crash it the way SIGKILL does (with -fsync
// always everything acknowledged is already on disk), reboot over what
// its journal file holds, and require every instance back at its exact pre-kill epoch, fault set, and Phi —
// bit-identical against both the live pre-crash state and a fresh
// ft.NewMapping recomputation. A third boot after scribbling garbage
// on the tail must log, truncate, and preserve the same state.
func TestDaemonJournalCrashRecovery(t *testing.T) {
	d1 := bootDaemon(t, DaemonConfig{Fsync: "always"})
	base, _ := runDaemon(t, d1, nil, Plane{})

	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3}
	do(t, "POST", base+"/v1/instances", createRequest{ID: "prod", Spec: spec}, http.StatusCreated, nil)
	do(t, "POST", base+"/v1/instances",
		createRequest{ID: "se", Spec: Spec{Kind: KindShuffle, H: 4, K: 2}},
		http.StatusCreated, nil)
	do(t, "POST", base+"/v1/instances",
		createRequest{ID: "scratch", Spec: Spec{Kind: KindDeBruijn, M: 2, H: 3, K: 1}},
		http.StatusCreated, nil)

	do(t, "POST", base+"/v1/instances/prod/events:batch",
		batchRequest{Events: []Event{
			{Kind: EventFault, Node: 3},
			{Kind: EventFault, Node: 11},
			{Kind: EventFault, Node: 7},
		}}, http.StatusOK, nil)
	do(t, "POST", base+"/v1/instances/prod/events",
		Event{Kind: EventRepair, Node: 7}, http.StatusOK, nil)
	do(t, "POST", base+"/v1/instances/se/events",
		Event{Kind: EventFault, Node: 2}, http.StatusOK, nil)
	// A rejected burst must leave no trace in the journal.
	do(t, "POST", base+"/v1/instances/se/events:batch",
		batchRequest{Events: []Event{
			{Kind: EventFault, Node: 0},
			{Kind: EventFault, Node: 1},
			{Kind: EventFault, Node: 3},
		}}, http.StatusConflict, nil)
	do(t, "DELETE", base+"/v1/instances/scratch", nil, http.StatusNoContent, nil)

	// SIGKILL: no drain, no flush beyond what -fsync always already
	// guaranteed per acknowledged request (so journalImage's sync moves
	// nothing).
	d2 := rebootDaemon(t, journalImage(t, d1.mgr), DaemonConfig{Fsync: "always"})
	url2, _ := runDaemon(t, d2, nil, Plane{})
	checkFleet(t, d2.mgr, stateOf(t, d1.mgr))
	if _, ok := d2.mgr.Get("scratch"); ok {
		t.Error("deleted instance resurrected by recovery")
	}

	// The recovered daemon keeps serving and journaling: one more event
	// must land on the recovered epoch chain.
	var res EventResult
	do(t, "POST", url2+"/v1/instances/prod/events",
		Event{Kind: EventFault, Node: 0}, http.StatusOK, &res)
	if want := mustGet(t, d1.mgr, "prod").Snapshot().Epoch() + 1; res.Epoch != want {
		t.Errorf("post-recovery epoch %d, want %d", res.Epoch, want)
	}

	// Stats surface the journal and recovery counters.
	var st Stats
	do(t, "GET", url2+"/v1/stats", nil, http.StatusOK, &st)
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
	resp, err := http.Get(url2 + "/metrics")
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

	// Crash No. 2, this time with a torn tail: garbage appended to the
	// file (a record the "crash" cut mid-write). Boot three must drop
	// exactly the garbage and keep every complete record.
	image := journalImage(t, d2.mgr)
	d3 := rebootDaemon(t, append(image, 0x13, 0x37, 0xde, 0xad, 0xbe), DaemonConfig{Fsync: "always"})
	checkFleet(t, d3.mgr, stateOf(t, d2.mgr))
	if got := journalImage(t, d3.mgr); len(got) != len(image) {
		t.Errorf("torn tail not truncated: file %d bytes, want %d", len(got), len(image))
	}
	if rec := d3.mgr.Stats().Journal.Recovery; rec == nil || !rec.Torn || rec.Records != 8 {
		t.Errorf("boot over torn tail reported %+v, want Torn with 8 records", rec)
	}
}

// TestDaemonCompactEndpoint drives POST /v1/compact end to end over a
// journaled daemon: the journal shrinks to checkpoint+suffix, a
// restart replays the bounded log to identical state, and the commit
// counters surface the compaction.
func TestDaemonCompactEndpoint(t *testing.T) {
	d1 := bootDaemon(t, DaemonConfig{})
	base, _ := runDaemon(t, d1, nil, Plane{})

	spec := Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 3}
	do(t, "POST", base+"/v1/instances", createRequest{ID: "prod", Spec: spec}, http.StatusCreated, nil)
	for i, n := range []int{3, 11, 7, 3, 11} {
		kind := EventFault
		if i >= 3 {
			kind = EventRepair
		}
		do(t, "POST", base+"/v1/instances/prod/events",
			Event{Kind: kind, Node: n}, http.StatusOK, nil)
	}

	var cs CompactStats
	do(t, "POST", base+"/v1/compact", nil, http.StatusOK, &cs)
	if cs.Instances != 1 || cs.Seq != 6 {
		t.Fatalf("compact stats %+v, want 1 instance at seq 6", cs)
	}
	// One event after the compaction: the suffix.
	do(t, "POST", base+"/v1/instances/prod/events",
		Event{Kind: EventFault, Node: 0}, http.StatusOK, nil)

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
	d2 := rebootDaemon(t, journalImage(t, d1.mgr), DaemonConfig{})
	checkFleet(t, d2.mgr, stateOf(t, d1.mgr))
	// Bounded replay: seq marker + 1 checkpoint + 1 suffix event.
	if rec := d2.mgr.Stats().Journal.Recovery; rec == nil || rec.Records != 3 || rec.Checkpoints != 1 {
		t.Errorf("recovery after compaction: %+v, want 3 records incl. 1 checkpoint", rec)
	}
}

func TestDaemonErrorPaths(t *testing.T) {
	base, _ := runDaemon(t, bootDaemon(t, DaemonConfig{}), nil, Plane{})

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
		createRequest{ID: "x", Spec: Spec{Kind: "torus", H: 4}},
		http.StatusBadRequest, nil)

	// Unknown instance everywhere.
	do(t, "GET", base+"/v1/instances/ghost", nil, http.StatusNotFound, nil)
	do(t, "GET", base+"/v1/instances/ghost/phi?x=0", nil, http.StatusNotFound, nil)
	do(t, "POST", base+"/v1/instances/ghost/events",
		Event{Kind: EventFault, Node: 0}, http.StatusNotFound, nil)
	do(t, "DELETE", base+"/v1/instances/ghost", nil, http.StatusNotFound, nil)

	// Budget exhaustion is a conflict, duplicate create too.
	do(t, "POST", base+"/v1/instances",
		createRequest{ID: "x", Spec: Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 1}},
		http.StatusCreated, nil)
	do(t, "POST", base+"/v1/instances",
		createRequest{ID: "x", Spec: Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 1}},
		http.StatusConflict, nil)
	do(t, "POST", base+"/v1/instances/x/events",
		Event{Kind: EventFault, Node: 0}, http.StatusOK, nil)
	do(t, "POST", base+"/v1/instances/x/events",
		Event{Kind: EventFault, Node: 1}, http.StatusConflict, nil)

	// Bad lookup arguments.
	do(t, "GET", base+"/v1/instances/x/phi?x=abc", nil, http.StatusBadRequest, nil)
	do(t, "GET", base+"/v1/instances/x/phi?x=99", nil, http.StatusBadRequest, nil)
}
