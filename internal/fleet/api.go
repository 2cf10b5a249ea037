package fleet

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ftnet/internal/obs"
)

// This file is the HTTP/JSON surface of the Manager API, served by
// cmd/ftnetd; Client (client.go) is its one client. JSON is the control
// plane and the curl-able debugging surface: creating and inspecting
// instances, promotion, topology, migration, stats. It is not the data
// plane — lookups and event bursts at volume travel the binary RPC
// plane (internal/wire), the one the performance ledger measures. The
// lookup and event routes here are the same operations one request at a
// time, for scripts and debugging; POST .../events is the curl form of
// an events:batch of one.
//
// Routes, with the types that are their bodies (request -> answer;
// every refusal is {"error":...} under the status errCode picks, and
// responseError reads it back):
//
//	POST   /v1/instances              createRequest -> 201 InstanceInfo
//	GET    /v1/instances              list instance ids
//	GET    /v1/instances/{id}         -> InstanceInfo
//	DELETE /v1/instances/{id}         -> 204
//	POST   /v1/instances/{id}/events  Event -> EventResult
//	POST   /v1/instances/{id}/events:batch  batchRequest -> EventResult
//	GET    /v1/instances/{id}/phi?x=n -> phiResponse (omit x for the slice,
//	                                  phiSliceResponse; it gzips when
//	                                  Accept-Encoding allows)
//	GET    /v1/watch?from=n           NDJSON commit stream of WatchEntry:
//	                                  catch-up, then live tail
//	POST   /v1/promote                -> PromoteResponse: take leadership,
//	                                  bump the term, enable writes
//	POST   /v1/compact                -> CompactStats: checkpoint state,
//	                                  truncate the journal prefix
//	GET    /v1/stats                  -> StatsResponse
//	GET    /healthz                   liveness probe
//	GET    /metrics                   Prometheus text exposition
//
// An {id} is one path segment: a client escapes it (url.PathEscape) and
// the mux unescapes it, so an id may contain "/", "?", "#", "%" or a
// space and still name one instance.
//
// events:batch applies a whole fault burst as one atomic transition:
// either every event in the batch applies and the epoch advances by
// exactly one, or the first invalid event rejects the entire batch and
// the instance is unchanged.
//
// Besides the fleet counters, /metrics exposes the service-level
// histogram families (Prometheus cumulative buckets, seconds):
//
//	ftnet_http_request_seconds{route=...}   per-route request latency
//	ftnet_http_inflight                     requests being served now
//	ftnet_commit_append_seconds             seq assign + WAL buffer stage (per round)
//	ftnet_commit_fsync_wait_seconds         group-commit durability wait (per round)
//	ftnet_commit_publish_seconds            snapshot publish stage (per round)
//	ftnet_commit_fanout_seconds             subscriber fan-out stage (per round)
//	ftnet_commit_round_records              records per commit round (unit: records)
//	ftnet_compaction_pause_seconds          commits-gated compaction pause
//	ftnet_replication_lag_seqs              follower: seqs behind leader
//	ftnet_replication_entry_age_seconds     follower: leader-commit-to-apply age
//
// /v1/watch is excluded from the request-latency histogram (its
// duration is the connection lifetime, not a latency) but counts
// toward ftnet_http_inflight while the stream is open.

// NewHTTPHandler returns the HTTP/JSON API over the given manager; one
// that follows (NewFollower) reports its replication loop on /v1/stats
// and /metrics and stops it on POST /v1/promote.
func NewHTTPHandler(mgr *Manager) http.Handler {
	s := &apiServer{mgr: mgr}
	reg := mgr.Metrics()
	reqHist := reg.HistogramVec("ftnet_http_request_seconds",
		"HTTP request latency by route.", "route")
	s.inflight = reg.Gauge("ftnet_http_inflight",
		"HTTP requests currently being served (open watch streams included).")
	// timed resolves the route's histogram once, at wiring time — the
	// per-request cost is two gauge adds and one histogram observe, all
	// allocation-free atomics.
	timed := func(route string, h http.HandlerFunc) http.HandlerFunc {
		hist := reqHist.With(route)
		return func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			s.inflight.Add(1)
			h(w, r)
			s.inflight.Add(-1)
			hist.Observe(time.Since(start))
		}
	}
	// inflightOnly tracks occupancy without a latency sample — the watch
	// stream's "latency" would be its connection lifetime.
	inflightOnly := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			s.inflight.Add(1)
			h(w, r)
			s.inflight.Add(-1)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/instances", timed("create", s.createInstance))
	mux.HandleFunc("GET /v1/instances", timed("list", s.listInstances))
	mux.HandleFunc("GET /v1/instances/{id}", timed("get", s.getInstance))
	mux.HandleFunc("DELETE /v1/instances/{id}", timed("delete", s.deleteInstance))
	mux.HandleFunc("POST /v1/instances/{id}/events", timed("events", s.postEvent))
	mux.HandleFunc("POST /v1/instances/{id}/events:batch", timed("events_batch", s.postEventBatch))
	mux.HandleFunc("GET /v1/instances/{id}/phi", timed("phi", s.getPhi))
	mux.HandleFunc("GET /v1/watch", inflightOnly(s.watch))
	mux.HandleFunc("POST /v1/promote", timed("promote", s.promote))
	mux.HandleFunc("POST /v1/compact", timed("compact", s.compact))
	mux.HandleFunc("GET /v1/ring", timed("ring", s.getRing))
	mux.HandleFunc("POST /v1/ring", timed("ring_set", s.setRing))
	mux.HandleFunc("POST /v1/rebalance", timed("rebalance", s.rebalance))
	mux.HandleFunc("POST /v1/migrate", timed("migrate", s.migrateOut))
	mux.HandleFunc("POST /v1/migrate/stage", timed("migrate_stage", s.migrateStage))
	mux.HandleFunc("POST /v1/migrate/commit", timed("migrate_commit", s.migrateCommit))
	mux.HandleFunc("POST /v1/migrate/abort", timed("migrate_abort", s.migrateAbort))
	mux.HandleFunc("GET /v1/migrate/state", timed("migrate_state", s.migrateState))
	mux.HandleFunc("GET /v1/stats", timed("stats", s.getStats))
	mux.HandleFunc("GET /healthz", timed("healthz", s.healthz))
	mux.HandleFunc("GET /metrics", timed("metrics", s.metrics))
	return mux
}

type apiServer struct {
	mgr      *Manager
	inflight *obs.Gauge
}

// PromoteResponse is the body of POST /v1/promote.
type PromoteResponse struct {
	Term      uint64 `json:"term"`                // the new leadership term
	Seq       uint64 `json:"seq"`                 // commit seq of the term-bump fence
	WasLeader bool   `json:"was_leader"`          // already writable; no bump was needed
	Discarded uint64 `json:"discarded,omitempty"` // (follower rejoin path) entries dropped
}

// promote serves POST /v1/promote: make this replica the leader
// (Manager.Promote; the request's context bounds the wait for a
// replication loop to drain). Promoting a replica that is already the
// leader is a no-op reporting the term in force.
func (s *apiServer) promote(w http.ResponseWriter, r *http.Request) {
	wasLeader := !s.mgr.readOnly.Load()
	term, err := s.mgr.Promote(r.Context(), 0)
	if err != nil {
		writeError(w, err)
		return
	}
	_, termSeq := s.mgr.pipe.log.Term()
	writeJSON(w, http.StatusOK, PromoteResponse{Term: term, Seq: termSeq, WasLeader: wasLeader})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// errCode maps a manager error to a status by its category: unknown
// instances are 404, state conflicts (duplicates, double faults,
// exhausted budget) are 409, journal failures (the transition was NOT
// applied) are 503, the rest are 400.
func errCode(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrReadOnly), errors.Is(err, ErrStaleTerm), errors.Is(err, ErrWrongShard):
		return http.StatusForbidden
	case errors.Is(err, ErrConflict):
		return http.StatusConflict
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, err error) {
	// A wrong-shard rejection carries the owner's URL in a header so
	// clients re-route on the 403 without parsing the message.
	if owner := WrongShardOwner(err); owner != "" {
		w.Header().Set("X-Ftnet-Owner", owner)
	}
	writeJSON(w, errCode(err), apiError{Error: err.Error()})
}

// responseError is writeError read backwards, for clients of this API:
// the error a non-2xx response stands for, in the category errCode
// mapped it from, so errors.Is and WrongShardOwner work on it as on the
// in-process error. Three rows lose detail on the way: 409 comes back
// as ErrConflict whether or not it was ErrBudget (which wraps it), and
// a 403 without an owner header — read-only posture, a stale term, a
// wrong shard nobody could name — comes back as ErrReadOnly; the
// message still says which. A status the API never sends is an error
// of no category. It reads what it needs of the body; the caller
// closes it.
func responseError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var body apiError
	if json.Unmarshal(raw, &body) != nil || body.Error == "" {
		body.Error = fmt.Sprintf("status %d: %s", resp.StatusCode, raw)
	}
	var category error // stays nil for a status the API never sends
	switch resp.StatusCode {
	case http.StatusNotFound:
		category = ErrNotFound
	case http.StatusForbidden:
		if owner := resp.Header.Get("X-Ftnet-Owner"); owner != "" {
			return WrongShardError(owner, body.Error)
		}
		category = ErrReadOnly
	case http.StatusConflict:
		category = ErrConflict
	case http.StatusServiceUnavailable:
		category = ErrUnavailable
	case http.StatusBadRequest:
		category = ErrInvalid
	}
	return &fleetError{category: category, msg: body.Error}
}

// createRequest is the body of POST /v1/instances.
type createRequest struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
}

func (s *apiServer) createInstance(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %v", err))
		return
	}
	in, err := s.mgr.Create(req.ID, req.Spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, in.Info())
}

func (s *apiServer) listInstances(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"instances": s.mgr.list()})
}

func (s *apiServer) getInstance(w http.ResponseWriter, r *http.Request) {
	in, err := resolve(s.mgr, r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, in.Info())
}

func (s *apiServer) deleteInstance(w http.ResponseWriter, r *http.Request) {
	ok, err := s.mgr.Delete(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if !ok {
		writeError(w, errorf(ErrNotFound, "fleet: no instance %q", r.PathValue("id")))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *apiServer) postEvent(w http.ResponseWriter, r *http.Request) {
	var ev Event
	if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
		writeError(w, fmt.Errorf("bad request body: %v", err))
		return
	}
	res, err := s.mgr.Event(r.PathValue("id"), ev)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// batchRequest is the body of POST /v1/instances/{id}/events:batch.
type batchRequest struct {
	Events []Event `json:"events"`
}

func (s *apiServer) postEventBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("bad request body: %v", err))
		return
	}
	if len(req.Events) == 0 {
		writeError(w, fmt.Errorf("empty event batch"))
		return
	}
	res, err := s.mgr.EventBatch(r.PathValue("id"), req.Events)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// phiResponse is the body of GET /v1/instances/{id}/phi?x=n.
type phiResponse struct {
	X   int `json:"x"`
	Phi int `json:"phi"`
}

// phiSliceResponse is the body of GET /v1/instances/{id}/phi without x,
// which getPhi streams by hand: the whole embedding, or the window
// ?from=&count= selects (From and Count are only present then).
type phiSliceResponse struct {
	From  int   `json:"from,omitempty"`
	Count int   `json:"count,omitempty"`
	Phi   []int `json:"phi"`
}

func (s *apiServer) getPhi(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	if xs := q.Get("x"); xs != "" {
		x, err := strconv.Atoi(xs)
		if err != nil {
			writeError(w, fmt.Errorf("bad x %q: %v", xs, err))
			return
		}
		phi, err := s.mgr.Lookup(id, x)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, phiResponse{X: x, Phi: phi})
		return
	}
	// The dense path bypasses Manager.Lookup but not its fences: a
	// migrated-away instance redirects, a staged one answers 503 until
	// its handoff record is durable.
	in, err := resolve(s.mgr, id)
	if err != nil {
		writeError(w, err)
		return
	}
	// ?from=&count= selects a window of the dense embedding — the
	// JSON-plane twin of the wire plane's LookupBatch. from defaults to
	// 0, count to the rest of the instance; count is clamped to the end,
	// so paginating in fixed steps never errors on the last page.
	from, count, windowed := 0, in.NTarget(), false
	if fs := q.Get("from"); fs != "" {
		v, err := strconv.Atoi(fs)
		if err != nil || v < 0 {
			writeError(w, fmt.Errorf("bad from %q", fs))
			return
		}
		from, windowed = v, true
	}
	if cs := q.Get("count"); cs != "" {
		v, err := strconv.Atoi(cs)
		if err != nil || v < 0 {
			writeError(w, fmt.Errorf("bad count %q", cs))
			return
		}
		count, windowed = v, true
	}
	if from > in.NTarget() {
		writeError(w, fmt.Errorf("from %d beyond %d target nodes", from, in.NTarget()))
		return
	}
	if count > in.NTarget()-from {
		count = in.NTarget() - from
	}
	// The dense endpoint streams the embedding straight from the
	// snapshot iterator: no O(n) slice materialization, no O(n) JSON
	// value tree — a million-node instance answers from O(k) state plus
	// the response buffer, and a window answers from the window alone.
	// When the client advertises gzip the stream is compressed on the
	// fly (same zero-buffer shape, the encoder in the middle): a
	// million near-sequential integers squeeze well.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Vary", "Accept-Encoding")
	var out io.Writer = w
	if acceptsGzip(r) {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzip.NewWriter(w)
		defer gz.Close()
		out = gz
	}
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(out)
	var scratch [20]byte
	if windowed {
		bw.WriteString(`{"from":`)
		bw.Write(strconv.AppendInt(scratch[:0], int64(from), 10))
		bw.WriteString(`,"count":`)
		bw.Write(strconv.AppendInt(scratch[:0], int64(count), 10))
		bw.WriteString(`,"phi":[`)
	} else {
		bw.WriteString(`{"phi":[`)
	}
	emit := func(x, phi int) bool {
		if x > from {
			bw.WriteByte(',')
		}
		bw.Write(strconv.AppendInt(scratch[:0], int64(phi), 10))
		return true
	}
	if windowed {
		in.RangePhiWindow(from, count, emit)
	} else {
		in.RangePhi(emit)
	}
	bw.WriteString("]}\n")
	bw.Flush()
}

// acceptsGzip reports whether the request allows a gzip response body:
// an Accept-Encoding gzip entry whose quality value is not zero
// ("gzip;q=0" is an explicit refusal per RFC 9110).
func acceptsGzip(r *http.Request) bool {
	for _, enc := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(strings.TrimSpace(enc), ";")
		if strings.TrimSpace(coding) != "gzip" {
			continue
		}
		q := strings.TrimSpace(params)
		if v, ok := strings.CutPrefix(q, "q="); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && f == 0 {
				return false
			}
		}
		return true
	}
	return false
}

// StatsResponse is the /v1/stats body: the manager's counters plus,
// in follower mode, the replication loop's, plus the service-metrics
// registry (request/stage/lag histograms with their quantiles) — the
// section loadgen scrapes into BENCH_service.json.
type StatsResponse struct {
	Stats
	Follower *FollowerStats `json:"follower,omitempty"`
	Obs      *obs.Export    `json:"obs,omitempty"`
}

func (s *apiServer) getStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Stats: s.mgr.Stats()}
	if f := s.mgr.follower.Load(); f != nil {
		fs := f.Stats()
		resp.Follower = &fs
	}
	e := s.mgr.Metrics().Export()
	resp.Obs = &e
	writeJSON(w, http.StatusOK, resp)
}

func (s *apiServer) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// metrics writes the fleet counters in the Prometheus text exposition
// format, hand-rolled to keep the module dependency-free.
func (s *apiServer) metrics(w http.ResponseWriter, r *http.Request) {
	st := s.mgr.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# TYPE ftnet_instances gauge\nftnet_instances %d\n", st.Instances)
	fmt.Fprintf(w, "# TYPE ftnet_events_total counter\nftnet_events_total %d\n", st.Events)
	fmt.Fprintf(w, "# TYPE ftnet_event_batches_total counter\nftnet_event_batches_total %d\n", st.Batches)
	fmt.Fprintf(w, "# TYPE ftnet_events_rejected_total counter\nftnet_events_rejected_total %d\n", st.Rejected)
	fmt.Fprintf(w, "# TYPE ftnet_events_rejected_by_cause_total counter\n")
	fmt.Fprintf(w, "ftnet_events_rejected_by_cause_total{cause=\"budget\"} %d\n", st.RejectedBy.Budget)
	fmt.Fprintf(w, "ftnet_events_rejected_by_cause_total{cause=\"conflict\"} %d\n", st.RejectedBy.Conflict)
	fmt.Fprintf(w, "ftnet_events_rejected_by_cause_total{cause=\"invalid\"} %d\n", st.RejectedBy.Invalid)
	fmt.Fprintf(w, "# TYPE ftnet_lookups_total counter\nftnet_lookups_total %d\n", st.Lookups)
	fmt.Fprintf(w, "# TYPE ftnet_journal_enabled gauge\nftnet_journal_enabled %d\n", boolGauge(st.Journal.Enabled))
	fmt.Fprintf(w, "# TYPE ftnet_journal_records_total counter\nftnet_journal_records_total %d\n", st.Journal.Records)
	fmt.Fprintf(w, "# TYPE ftnet_journal_bytes_total counter\nftnet_journal_bytes_total %d\n", st.Journal.Bytes)
	fmt.Fprintf(w, "# TYPE ftnet_journal_syncs_total counter\nftnet_journal_syncs_total %d\n", st.Journal.Syncs)
	fmt.Fprintf(w, "# TYPE ftnet_journal_last_epoch gauge\nftnet_journal_last_epoch %d\n", st.Journal.LastEpoch)
	fmt.Fprintf(w, "# TYPE ftnet_journal_append_failed_total counter\nftnet_journal_append_failed_total %d\n", st.Journal.AppendFailed)
	if rec := st.Journal.Recovery; rec != nil {
		fmt.Fprintf(w, "# TYPE ftnet_journal_recovered_records gauge\nftnet_journal_recovered_records %d\n", rec.Records)
		fmt.Fprintf(w, "# TYPE ftnet_journal_recovery_seconds gauge\nftnet_journal_recovery_seconds %g\n", rec.Seconds)
		fmt.Fprintf(w, "# TYPE ftnet_journal_recovered_torn gauge\nftnet_journal_recovered_torn %d\n", boolGauge(rec.Torn))
	}
	fmt.Fprintf(w, "# TYPE ftnet_read_only gauge\nftnet_read_only %d\n", boolGauge(st.ReadOnly))
	fmt.Fprintf(w, "# TYPE ftnet_rejected_read_only_total counter\nftnet_rejected_read_only_total %d\n", st.RejectedRO)
	fmt.Fprintf(w, "# TYPE ftnet_term gauge\nftnet_term %d\n", st.Commit.Term)
	fmt.Fprintf(w, "# TYPE ftnet_commit_last_seq gauge\nftnet_commit_last_seq %d\n", st.Commit.LastSeq)
	fmt.Fprintf(w, "# TYPE ftnet_commit_base_seq gauge\nftnet_commit_base_seq %d\n", st.Commit.Base)
	fmt.Fprintf(w, "# TYPE ftnet_watch_subscribers gauge\nftnet_watch_subscribers %d\n", st.Commit.Subscribers)
	fmt.Fprintf(w, "# TYPE ftnet_watch_overflows_total counter\nftnet_watch_overflows_total %d\n", st.Commit.Overflows)
	fmt.Fprintf(w, "# TYPE ftnet_compactions_total counter\nftnet_compactions_total %d\n", st.Commit.Compactions)
	if f := s.mgr.follower.Load(); f != nil {
		fs := f.Stats()
		fmt.Fprintf(w, "# TYPE ftnet_follower_connected gauge\nftnet_follower_connected %d\n", boolGauge(fs.Connected))
		fmt.Fprintf(w, "# TYPE ftnet_follower_entries_total counter\nftnet_follower_entries_total %d\n", fs.Entries)
		fmt.Fprintf(w, "# TYPE ftnet_follower_reconnects_total counter\nftnet_follower_reconnects_total %d\n", fs.Reconnects)
		fmt.Fprintf(w, "# TYPE ftnet_follower_resyncs_total counter\nftnet_follower_resyncs_total %d\n", fs.Resyncs)
		fmt.Fprintf(w, "# TYPE ftnet_follower_demotions_total counter\nftnet_follower_demotions_total %d\n", fs.Demotions)
		fmt.Fprintf(w, "# TYPE ftnet_follower_discarded_total counter\nftnet_follower_discarded_total %d\n", fs.Discarded)
		fmt.Fprintf(w, "# TYPE ftnet_follower_promoted gauge\nftnet_follower_promoted %d\n", boolGauge(fs.Promoted))
		fmt.Fprintf(w, "# TYPE ftnet_follower_last_seq gauge\nftnet_follower_last_seq %d\n", fs.LastSeq)
	}
	// The service-level registry: request-latency, commit-stage,
	// replication-lag and compaction-pause families, histograms as
	// cumulative le buckets.
	s.mgr.Metrics().WritePrometheus(w)
}
