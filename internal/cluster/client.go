// Package cluster is the client of a sharded fleet: it sends each
// request to the daemon that owns the instance and converges on its
// own when ownership moves underneath it.
//
// Where a request goes is a shard.Router's decision — the ring, or what
// a redirect hint taught it. What the client adds is the one
// convergence rule: on a wrong-shard refusal, tell the router and go
// where it says (or ask the same member again when the hint cannot be
// followed — behind a routing proxy, which has learned by then), a
// bounded number of times; on "unavailable" (an instance staged
// mid-migration, a journal that failed), wait briefly and ask again
// until a grace deadline. Both refusals guarantee nothing was applied,
// so re-issuing a write after them is safe. Everything else is the
// answer — above all a transport failure, after which a write's fate is
// unknown: it is never sent twice.
package cluster

import (
	"errors"
	"sync/atomic"
	"time"

	"ftnet/internal/fleet"
	"ftnet/internal/shard"
)

// Transport reaches one member of the fleet. It is the data-plane
// method set of *wire.Client, which therefore is one as it stands.
// Errors come back in fleet's categories (errors.Is(err,
// fleet.ErrWrongShard) and fleet.WrongShardOwner, fleet.ErrUnavailable,
// ...).
type Transport interface {
	Lookup(id string, x int) (phi int, epoch uint64, err error)
	LookupBatch(id string, xs, phis []int) (epoch uint64, err error)
	ApplyBatch(id string, events []fleet.Event) (fleet.EventResult, error)
}

// backoff is the pause between two tries of a request refused as
// unavailable: a staged window lasts about one fsync on the target.
const backoff = 2 * time.Millisecond

// Client routes the Transport method set across a fleet; it is itself
// a Transport. Safe for concurrent use if its transports are.
type Client struct {
	router  *shard.Router
	members map[string]Transport
	grace   time.Duration

	redirects   atomic.Uint64
	stagedWaits atomic.Uint64
}

// New returns a client that routes by router and reaches each of its
// members through members[name]. grace bounds how long one request
// keeps re-asking a member that answers "unavailable". Talking to the
// daemons directly is a router over the real members; talking through
// a routing proxy is a router over one.
func New(router *shard.Router, members map[string]Transport, grace time.Duration) *Client {
	return &Client{router: router, members: members, grace: grace}
}

// Redirects returns how many wrong-shard refusals the client has
// re-issued a request after.
func (c *Client) Redirects() uint64 { return c.redirects.Load() }

// StagedWaits returns how many "unavailable" answers it has ridden
// out.
func (c *Client) StagedWaits() uint64 { return c.stagedWaits.Load() }

// do sends one request for id, re-issuing it as the package comment
// describes; what it returns is final.
func (c *Client) do(id string, call func(Transport) error) error {
	member := c.router.Owner(id)
	hops := len(c.members)
	deadline := time.Now().Add(c.grace)
	for {
		t, ok := c.members[member]
		if !ok {
			return errors.New("cluster: no shard member owns instance " + id)
		}
		err := call(t)
		switch {
		case errors.Is(err, fleet.ErrWrongShard) && hops > 0:
			hops--
			c.redirects.Add(1)
			if next, follow := c.router.Learn(id, fleet.WrongShardOwner(err), member); follow {
				member = next
			}
		case errors.Is(err, fleet.ErrUnavailable) && time.Now().Before(deadline):
			c.stagedWaits.Add(1)
			time.Sleep(backoff)
		default:
			return err
		}
	}
}

// Lookup answers where target node x of instance id runs now.
func (c *Client) Lookup(id string, x int) (phi int, epoch uint64, err error) {
	err = c.do(id, func(t Transport) (err error) {
		phi, epoch, err = t.Lookup(id, x)
		return err
	})
	return phi, epoch, err
}

// LookupBatch resolves xs into phis (which must have len(xs)).
func (c *Client) LookupBatch(id string, xs, phis []int) (epoch uint64, err error) {
	err = c.do(id, func(t Transport) (err error) {
		epoch, err = t.LookupBatch(id, xs, phis)
		return err
	})
	return epoch, err
}

// ApplyBatch applies a fault burst as one atomic transition. It is
// re-issued only after the two refusals that guarantee it was not
// applied; any other error, a transport failure included, is returned
// after a single send.
func (c *Client) ApplyBatch(id string, events []fleet.Event) (res fleet.EventResult, err error) {
	err = c.do(id, func(t Transport) (err error) {
		res, err = t.ApplyBatch(id, events)
		return err
	})
	return res, err
}
