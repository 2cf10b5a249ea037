package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"ftnet/internal/fleet"
	"ftnet/internal/wire"
)

// HTTP is the JSON plane as a Transport: the daemon (or ftproxy) at
// Base, asked one request per call. A refusal comes back as
// fleet.ResponseError reads it; a request that got no response at all
// comes back as a *wire.TransportError, the same "fate unknown" marker
// the binary plane uses, so wire.IsTransport classifies both planes.
type HTTP struct {
	Client *http.Client
	Base   string // no trailing slash
}

// Lookup is GET /v1/instances/{id}/phi?x=. The JSON answer carries no
// epoch; 0 is returned.
func (h HTTP) Lookup(id string, x int) (int, uint64, error) {
	var out fleet.PhiResponse
	err := h.do(http.MethodGet, "/v1/instances/"+id+"/phi?x="+strconv.Itoa(x), nil, &out)
	return out.Phi, 0, err
}

// LookupBatch is one Lookup per target: the JSON plane has no
// vectorized read, so unlike the binary plane's the answers need not
// come from one snapshot.
func (h HTTP) LookupBatch(id string, xs, phis []int) (uint64, error) {
	for i, x := range xs {
		phi, _, err := h.Lookup(id, x)
		if err != nil {
			return 0, err
		}
		phis[i] = phi
	}
	return 0, nil
}

// ApplyBatch is POST /v1/instances/{id}/events:batch.
func (h HTTP) ApplyBatch(id string, events []fleet.Event) (fleet.EventResult, error) {
	body, err := json.Marshal(fleet.BatchRequest{Events: events})
	if err != nil {
		return fleet.EventResult{}, err
	}
	var out fleet.EventResult
	err = h.do(http.MethodPost, "/v1/instances/"+id+"/events:batch", body, &out)
	return out, err
}

func (h HTTP) do(method, path string, body []byte, into any) error {
	req, err := http.NewRequest(method, h.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.Client.Do(req)
	if err != nil {
		return &wire.TransportError{Err: err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) // read to EOF, or the connection is not reused
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fleet.ResponseError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
