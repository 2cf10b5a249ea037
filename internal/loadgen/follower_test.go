package loadgen

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/fleet/fleettest"
	"ftnet/internal/ft"
)

// TestVerifyFollowerConverges runs a real leader + follower pair in
// process, drives a write-storm through the leader's RPC plane, and
// holds the pair to VerifyFollower's contract — the same check the CI
// replication job runs against separate daemons.
func TestVerifyFollowerConverges(t *testing.T) {
	lead := fleettest.Start(t, fleet.DaemonConfig{}, wirePlane)
	leader, leaderRPC := lead.URL, lead.RPCAddr
	follower := fleettest.Start(t, fleet.DaemonConfig{Follow: leader, Follower: fastFollower}, nil).URL

	cfg := Config{
		Addr:      leader,
		RPCAddr:   leaderRPC,
		Instances: 2,
		Spec:      fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 5, K: 4},
		Workers:   4,
		Requests:  400,
		Scenario:  WriteStorm,
		Seed:      7,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d load errors", res.Errors)
	}

	fv, err := VerifyFollower(leader, follower, cfg.InstanceIDs(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fv.Instances != cfg.Instances {
		t.Fatalf("verified %d instances, want %d", fv.Instances, cfg.Instances)
	}

	// A wrong follower is caught: point the check at the leader's ids
	// on a daemon that never replicated them.
	blank := fleettest.Start(t, fleet.DaemonConfig{}, nil).URL
	if _, err := VerifyFollower(leader, blank, cfg.InstanceIDs(), 200*time.Millisecond); err == nil {
		t.Fatal("VerifyFollower accepted a daemon with no replica state")
	}
}

// TestVerifyInstanceRecomputesFromTheCreatedSpec serves verifyInstance
// rows from a fake daemon. It accepts the paper's map of either kind,
// and refuses a shuffle-exchange slice that skips psi, a copy reporting
// one more host node than its spec has so as to hold k+1 faults, and a
// copy served under another spec than the one the storm created.
func TestVerifyInstanceRecomputesFromTheCreatedSpec(t *testing.T) {
	db := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: 2}
	se := fleet.Spec{Kind: fleet.KindShuffle, H: 4, K: 2}
	phi := func(nHost int, faults ...int) []int {
		m, err := ft.NewMapping(16, nHost, faults)
		if err != nil {
			t.Fatal(err)
		}
		return m.PhiSlice()
	}
	p := ft.SEParams{H: se.H, K: se.K}
	_, psi, err := ft.NewSEViaDB(p)
	if err != nil {
		t.Fatal(err)
	}
	viaPsi, err := ft.SEMapViaDB(p, psi, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]struct {
		info fleet.InstanceInfo
		phi  []int
		ok   bool
	}{
		"db":        {fleet.InstanceInfo{Spec: db, NHost: 18, Faults: []int{1, 8}}, phi(18, 1, 8), true},
		"se":        {fleet.InstanceInfo{Spec: se, NHost: 18, Faults: []int{1, 8}}, viaPsi, true},
		"se-no-psi": {fleet.InstanceInfo{Spec: se, NHost: 18, Faults: []int{1, 8}}, phi(18, 1, 8), false},
		"db-wide":   {fleet.InstanceInfo{Spec: db, NHost: 19, Faults: []int{3, 7, 11}}, phi(19, 3, 7, 11), false},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/instances/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(rows[r.PathValue("id")].info)
	})
	mux.HandleFunc("GET /v1/instances/{id}/phi", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string][]int{"phi": rows[r.PathValue("id")].phi})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	for id, r := range rows {
		if _, err := verifyInstance(control(ts.URL), r.info.Spec, id, 0, true); (err == nil) != r.ok {
			t.Errorf("%s: verifyInstance says %v, want it to accept: %v", id, err, r.ok)
		}
	}
	if _, err := verifyInstance(control(ts.URL), se, "db", 0, true); err == nil {
		t.Error("verifyInstance accepted a de Bruijn copy of an instance created shuffle-exchange")
	}
}
