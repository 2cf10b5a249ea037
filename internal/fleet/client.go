package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	sharding "ftnet/internal/shard"
)

// Client is the one client of the JSON API in api.go and api_shard.go:
// the daemon (or ftproxy) at Base, asked one request per call. Every
// answer is read back the way the handlers wrote it — a refusal as the
// error responseError makes of it, so errors.Is and WrongShardOwner
// work as on the in-process error; a request that got no answer as the
// error http.Client.Do returned, untouched, because its fate is unknown
// and only the caller knows what that means. It has the methods its
// callers use (the load generator, daemon-to-daemon migration, ftload),
// not one per route.
type Client struct {
	HTTP *http.Client
	Base string // no trailing slash

	ctx context.Context // every request's, when not nil: the ring audit's probes end with the daemon
}

// instancePath is where an instance id enters a URL path, here and
// nowhere else: the id is one escaped segment, so "a/b" and "a%2Fb"
// name the two instances they are.
func instancePath(id, rest string) string {
	return "/v1/instances/" + url.PathEscape(id) + rest
}

// do sends one request and reads one answer. in is the request body: a
// []byte goes out verbatim (a migration frame), anything else non-nil
// as JSON. Any 2xx is success, decoded into out when out is non-nil.
func (c Client) do(method, path string, in, out any) error {
	var body io.Reader
	var ctype string
	switch in := in.(type) {
	case nil:
	case []byte:
		body, ctype = bytes.NewReader(in), "application/octet-stream"
	default:
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body, ctype = bytes.NewReader(b), "application/json"
	}
	ctx := c.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) // read to EOF, or the connection is not reused
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return responseError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Poll calls try until it succeeds or timeout has passed, pausing
// briefly between tries, and returns what the last try returned.
func Poll(timeout time.Duration, try func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := try()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Healthz is GET /healthz.
func (c Client) Healthz() error { return c.do(http.MethodGet, "/healthz", nil, nil) }

// Create is POST /v1/instances. An id that already exists is refused
// with ErrConflict.
func (c Client) Create(id string, spec Spec) (info InstanceInfo, err error) {
	err = c.do(http.MethodPost, "/v1/instances", createRequest{ID: id, Spec: spec}, &info)
	return info, err
}

// Instance is GET /v1/instances/{id}.
func (c Client) Instance(id string) (info InstanceInfo, err error) {
	err = c.do(http.MethodGet, instancePath(id, ""), nil, &info)
	return info, err
}

// Phi is GET /v1/instances/{id}/phi without x: the whole embedding,
// phi[x] for every target node x.
func (c Client) Phi(id string) ([]int, error) {
	var out phiSliceResponse
	err := c.do(http.MethodGet, instancePath(id, "/phi"), nil, &out)
	return out.Phi, err
}

// Lookup is GET /v1/instances/{id}/phi?x=.
func (c Client) Lookup(id string, x int) (int, error) {
	var out phiResponse
	err := c.do(http.MethodGet, instancePath(id, "/phi?x="+strconv.Itoa(x)), nil, &out)
	return out.Phi, err
}

// EventBatch is POST /v1/instances/{id}/events:batch.
func (c Client) EventBatch(id string, events []Event) (res EventResult, err error) {
	err = c.do(http.MethodPost, instancePath(id, "/events:batch"), batchRequest{Events: events}, &res)
	return res, err
}

// Stats is GET /v1/stats.
func (c Client) Stats() (st StatsResponse, err error) {
	err = c.do(http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Promote is POST /v1/promote.
func (c Client) Promote() (pr PromoteResponse, err error) {
	err = c.do(http.MethodPost, "/v1/promote", nil, &pr)
	return pr, err
}

// SetRing is POST /v1/ring.
func (c Client) SetRing(req RingRequest) error {
	return c.do(http.MethodPost, "/v1/ring", req, nil)
}

// Rebalance is POST /v1/rebalance. A run that stopped early comes back
// as the error that stopped it; the handoffs it had completed by then
// stay completed.
func (c Client) Rebalance() (rr RebalanceResponse, err error) {
	err = c.do(http.MethodPost, "/v1/rebalance", nil, &rr)
	return rr, err
}

// pushMigration POSTs one encoded migration frame.
func (c Client) pushMigration(path string, mig sharding.Migration) error {
	frame, err := sharding.AppendMigration(nil, mig)
	if err != nil {
		return err
	}
	return c.do(http.MethodPost, path, frame, nil)
}

// stageMigration is POST /v1/migrate/stage: Manager.stageMigration on
// the peer.
func (c Client) stageMigration(mig sharding.Migration) error {
	return c.pushMigration("/v1/migrate/stage", mig)
}

// commitMigration is POST /v1/migrate/commit: Manager.commitMigration
// on the peer.
func (c Client) commitMigration(mig sharding.Migration) error {
	return c.pushMigration("/v1/migrate/commit", mig)
}

// abortMigration is POST /v1/migrate/abort: Manager.abortMigration on
// the peer. Thanks to its writeMu discipline, aborted=true proves the
// handoff's commit can never land; aborted=false says nothing by itself
// (already committed, or never staged) and is settled by migrationState.
func (c Client) abortMigration(id string) (aborted bool, err error) {
	var out migrationAnswer
	err = c.do(http.MethodPost, "/v1/migrate/abort", migrationAnswer{ID: id}, &out)
	return out.Aborted, err
}

// migrationState is GET /v1/migrate/state: Manager.migrationState on
// the peer — "absent", "staged", or "committed" with the live epoch.
func (c Client) migrationState(id string) (state string, epoch uint64, err error) {
	var out migrationAnswer
	err = c.do(http.MethodGet, "/v1/migrate/state?id="+url.QueryEscape(id), nil, &out)
	return out.State, out.Epoch, err
}
