package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	sharding "ftnet/internal/shard"
)

// The shard-plane routes, served next to the instance API so every
// daemon is simultaneously a data node and a migration endpoint:
//
//	GET  /v1/ring            -> ringInfo (404 when unsharded)
//	POST /v1/ring            RingRequest -> ringInfo: install a topology
//	POST /v1/rebalance       -> RebalanceResponse: migrate every displaced
//	                         instance to its owner
//	POST /v1/migrate         migrateRequest -> migrateStats: migrate one
//	POST /v1/migrate/stage   (daemon-to-daemon) binary frame: the unfenced checkpoint
//	POST /v1/migrate/commit  (daemon-to-daemon) binary frame: the fenced checkpoint
//	POST /v1/migrate/abort   (daemon-to-daemon) drop a staged instance
//	GET  /v1/migrate/state   (daemon-to-daemon) this daemon's view of an
//	                         id: absent | staged | committed (+epoch) —
//	                         the probe resolveHandoff and reconcilePins
//	                         settle ambiguous handoffs with
//
// stage/commit bodies are the canonical shard.Migration encoding
// (application/octet-stream), the same bytes FuzzMigrationDecode
// hammers; everything else is JSON, and all four daemon-to-daemon
// routes answer a migrationAnswer.

// migrationAnswer is what the four daemon-to-daemon migrate routes
// answer, each filling in its own part — and, with only ID set, the
// body abort takes.
type migrationAnswer struct {
	ID      string `json:"id"`
	Staged  bool   `json:"staged,omitempty"`  // stage: the checkpoint is held
	Aborted bool   `json:"aborted,omitempty"` // abort: a staged copy existed and was dropped
	State   string `json:"state,omitempty"`   // state: absent | staged | committed
	Epoch   uint64 `json:"epoch,omitempty"`   // commit, state: the copy's epoch
}

func (s *apiServer) getRing(w http.ResponseWriter, r *http.Request) {
	info, ok := s.mgr.ring()
	if !ok {
		writeError(w, errorf(ErrNotFound, "fleet: no shard topology installed"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// RingRequest is the body of POST /v1/ring.
type RingRequest struct {
	Self  string            `json:"self"`
	Peers map[string]string `json:"peers"`
}

func (s *apiServer) setRing(w http.ResponseWriter, r *http.Request) {
	var req RingRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %v", err))
		return
	}
	// A self outside peers is the spectator posture, not a typo worth
	// rejecting: the daemon owns nothing on the installed ring and
	// redirects every instance request to its owner — how a
	// not-yet-joined member boots behind a routing proxy, so traffic
	// misdirected to it converges through its hints instead of 404ing.
	s.mgr.SetTopology(req.Self, req.Peers, 0)
	info, ok := s.mgr.ring()
	if !ok {
		writeJSON(w, http.StatusOK, map[string]bool{"sharded": false})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// RebalanceResponse is the body of POST /v1/rebalance.
type RebalanceResponse struct {
	Migrated []migrateStats `json:"migrated"`
	Count    int            `json:"count"`
	Error    string         `json:"error,omitempty"` // set when the run stopped early
}

func (s *apiServer) rebalance(w http.ResponseWriter, r *http.Request) {
	out, err := s.mgr.rebalance()
	resp := RebalanceResponse{Migrated: out, Count: len(out)}
	if err != nil {
		resp.Error = err.Error()
		writeJSON(w, errCode(err), resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// migrateRequest is the body of POST /v1/migrate.
type migrateRequest struct {
	ID   string `json:"id"`
	Peer string `json:"peer"`
}

func (s *apiServer) migrateOut(w http.ResponseWriter, r *http.Request) {
	var req migrateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %v", err))
		return
	}
	st, err := s.mgr.migrateOut(req.ID, req.Peer)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// readMigration decodes a binary migration frame from a request body,
// enforcing the codec's size cap before buffering.
func readMigration(r *http.Request) (sharding.Migration, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, sharding.MaxMigrationSize+1))
	if err != nil {
		return sharding.Migration{}, fmt.Errorf("read migration body: %v", err)
	}
	return sharding.DecodeMigration(body)
}

func (s *apiServer) migrateStage(w http.ResponseWriter, r *http.Request) {
	mig, err := readMigration(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.mgr.stageMigration(mig); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, migrationAnswer{ID: mig.ID, Staged: true})
}

func (s *apiServer) migrateCommit(w http.ResponseWriter, r *http.Request) {
	mig, err := readMigration(r)
	if err != nil {
		writeError(w, err)
		return
	}
	epoch, err := s.mgr.commitMigration(mig)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, migrationAnswer{ID: mig.ID, Epoch: epoch})
}

func (s *apiServer) migrateAbort(w http.ResponseWriter, r *http.Request) {
	var req migrationAnswer
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, migrationAnswer{ID: req.ID, Aborted: s.mgr.abortMigration(req.ID)})
}

func (s *apiServer) migrateState(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeError(w, fmt.Errorf("missing id query parameter"))
		return
	}
	state, epoch := s.mgr.migrationState(id)
	writeJSON(w, http.StatusOK, migrationAnswer{ID: id, State: state, Epoch: epoch})
}
