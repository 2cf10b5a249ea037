package wire

import (
	"errors"
	"fmt"

	"ftnet/internal/fleet"
)

// Error is an application-level RPC failure: the server processed the
// request and answered with a non-OK status. Unwrap maps the status
// back onto the fleet error categories, so callers keep using
// errors.Is(err, fleet.ErrBudget) etc. across the wire exactly as they
// would in-process.
type Error struct {
	Status Status
	Msg    string
	Owner  string // StatusWrongShard only: the owning daemon's advertised URL
}

func (e *Error) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return "wire: " + e.Status.String()
}

func (e *Error) Unwrap() error {
	switch e.Status {
	case StatusNotFound:
		return fleet.ErrNotFound
	case StatusConflict:
		return fleet.ErrConflict
	case StatusBudget:
		return fleet.ErrBudget
	case StatusUnavailable:
		return fleet.ErrUnavailable
	case StatusInvalid:
		return fleet.ErrInvalid
	case StatusReadOnly:
		return fleet.ErrReadOnly
	case StatusStaleTerm:
		return fleet.ErrStaleTerm
	case StatusWrongShard:
		// Rebuild the fleet-side error so fleet.WrongShardOwner works on
		// an RPC rejection exactly as on an in-process one.
		return fleet.WrongShardError(e.Owner, e.Msg)
	default:
		return nil
	}
}

// TransportError marks a failure of the connection itself — dial,
// write, read, CRC mismatch, timeout — as opposed to an application
// rejection. After a TransportError from a mutating call the request
// may or may not have been applied; the client never retries those
// (see Client.ApplyBatch), and load drivers count the two kinds
// apart.
type TransportError struct {
	Err    error
	unsent bool // the request provably never left: the client sends it again whatever it is
}

func (e *TransportError) Error() string { return "wire: transport: " + e.Err.Error() }

func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err is (or wraps) a connection-level
// failure rather than an application rejection.
func IsTransport(err error) bool {
	var t *TransportError
	return errors.As(err, &t)
}

// statusOf maps a fleet error to its wire status. Budget is checked
// before Conflict because fleet.ErrBudget wraps fleet.ErrConflict.
func statusOf(err error) Status {
	switch {
	case errors.Is(err, fleet.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, fleet.ErrStaleTerm):
		return StatusStaleTerm
	case errors.Is(err, fleet.ErrWrongShard):
		return StatusWrongShard
	case errors.Is(err, fleet.ErrReadOnly):
		return StatusReadOnly
	case errors.Is(err, fleet.ErrBudget):
		return StatusBudget
	case errors.Is(err, fleet.ErrConflict):
		return StatusConflict
	case errors.Is(err, fleet.ErrUnavailable):
		return StatusUnavailable
	default:
		return StatusInvalid
	}
}

// transportErrf wraps a formatted message as a TransportError.
func transportErrf(format string, args ...any) error {
	return &TransportError{Err: fmt.Errorf(format, args...)}
}
