package cluster

import (
	"errors"
	"net/url"

	"ftnet/internal/fleet"
	"ftnet/internal/wire"
)

// HTTP is the JSON plane as a Transport: a fleet.Client seen through
// the data-plane method set. A refusal comes back as the client read
// it; a request that got no response at all comes back as a
// *wire.TransportError, the same "fate unknown" marker the binary
// plane uses, so wire.IsTransport classifies both planes.
type HTTP fleet.Client

// unanswered marks the error of a request http.Client.Do could not get
// an answer to (always a *url.Error) as a transport failure.
func unanswered(err error) error {
	var ue *url.Error
	if errors.As(err, &ue) {
		return &wire.TransportError{Err: err}
	}
	return err
}

// Lookup is fleet.Client.Lookup. The JSON answer carries no epoch; 0 is
// returned.
func (h HTTP) Lookup(id string, x int) (int, uint64, error) {
	phi, err := fleet.Client(h).Lookup(id, x)
	return phi, 0, unanswered(err)
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

// ApplyBatch is fleet.Client.EventBatch.
func (h HTTP) ApplyBatch(id string, events []fleet.Event) (fleet.EventResult, error) {
	res, err := fleet.Client(h).EventBatch(id, events)
	return res, unanswered(err)
}
