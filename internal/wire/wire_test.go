package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"ftnet/internal/fleet"
)

func startServer(t *testing.T, mgr *fleet.Manager, opts ServerOptions) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(mgr, opts)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

func dialTest(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func newTestManager(t *testing.T, id string, k int) *fleet.Manager {
	t.Helper()
	mgr := fleet.NewManager(fleet.Options{})
	spec := fleet.Spec{Kind: fleet.KindDeBruijn, M: 2, H: 4, K: k}
	if _, err := mgr.Create(id, spec); err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestWireRoundTrip drives all three operations end to end over a real
// TCP connection and cross-checks every answer against the in-process
// manager.
func TestWireRoundTrip(t *testing.T) {
	mgr := newTestManager(t, "prod", 4)
	addr, _ := startServer(t, mgr, ServerOptions{})
	c := dialTest(t, addr, Options{})

	in, _ := mgr.Get("prod")
	n := in.NTarget()
	for x := 0; x < n; x++ {
		phi, epoch, err := c.Lookup("prod", x)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", x, err)
		}
		want, err := mgr.Lookup("prod", x)
		if err != nil {
			t.Fatal(err)
		}
		if phi != want || epoch != 0 {
			t.Fatalf("Lookup(%d) = (%d, %d), want (%d, 0)", x, phi, epoch, want)
		}
	}

	res, err := c.ApplyBatch("prod", []fleet.Event{
		{Kind: fleet.EventFault, Node: 0},
		{Kind: fleet.EventFault, Node: 1},
	})
	if err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	if res.Epoch != 1 || res.NumFaults != 2 || res.Applied != 2 {
		t.Fatalf("ApplyBatch result = %+v", res)
	}

	xs := make([]int, n)
	phis := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	epoch, err := c.LookupBatch("prod", xs, phis)
	if err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("LookupBatch epoch = %d, want 1", epoch)
	}
	for i, x := range xs {
		want, _ := mgr.Lookup("prod", x)
		if phis[i] != want {
			t.Fatalf("LookupBatch phi[%d] = %d, want %d", x, phis[i], want)
		}
	}

	if res, err = c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventRepair, Node: 0}}); err != nil {
		t.Fatalf("repair: %v", err)
	}
	if res.Epoch != 2 || res.NumFaults != 1 {
		t.Fatalf("repair result = %+v", res)
	}
}

// TestWireErrorMapping pins that application rejections cross the wire
// as typed statuses and unwrap to the same fleet error categories the
// in-process API returns, so errors.Is keeps working remotely.
func TestWireErrorMapping(t *testing.T) {
	mgr := newTestManager(t, "prod", 2)
	addr, _ := startServer(t, mgr, ServerOptions{})
	c := dialTest(t, addr, Options{})

	_, _, err := c.Lookup("nope", 0)
	if !errors.Is(err, fleet.ErrNotFound) {
		t.Fatalf("unknown instance: %v, want ErrNotFound", err)
	}
	var we *Error
	if !errors.As(err, &we) || we.Status != StatusNotFound {
		t.Fatalf("unknown instance error %v is not a StatusNotFound wire.Error", err)
	}

	if _, _, err = c.Lookup("prod", 1<<20); err == nil {
		t.Fatal("out-of-range lookup succeeded")
	}

	if _, err = c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 3}}); err != nil {
		t.Fatal(err)
	}
	_, err = c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 3}})
	if !errors.Is(err, fleet.ErrConflict) || errors.Is(err, fleet.ErrBudget) {
		t.Fatalf("double fault: %v, want plain ErrConflict", err)
	}

	if _, err = c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 4}}); err != nil {
		t.Fatal(err)
	}
	_, err = c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 5}})
	if !errors.Is(err, fleet.ErrBudget) {
		t.Fatalf("k+1-th fault: %v, want ErrBudget", err)
	}
	if errors.As(err, &we); we.Status != StatusBudget {
		t.Fatalf("budget rejection carries status %v, want StatusBudget", we.Status)
	}
	if IsTransport(err) {
		t.Fatal("an application rejection reported as a transport error")
	}
}

// TestWireReadOnly pins the follower posture: reads are served,
// mutations are refused with StatusReadOnly. NewFollower takes the
// posture; its loop never runs.
func TestWireReadOnly(t *testing.T) {
	mgr := newTestManager(t, "prod", 2)
	if _, err := fleet.NewFollower(mgr, "http://leader.example", fleet.FollowerOptions{}); err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, mgr, ServerOptions{})
	c := dialTest(t, addr, Options{})

	if _, _, err := c.Lookup("prod", 0); err != nil {
		t.Fatalf("read on a read-only server: %v", err)
	}
	_, err := c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 0}})
	var we *Error
	if !errors.As(err, &we) || we.Status != StatusReadOnly {
		t.Fatalf("mutation on a read-only server: %v, want StatusReadOnly", err)
	}
	if mgr.Stats().Events != 0 {
		t.Fatal("read-only server applied the batch anyway")
	}
}

// TestWireConcurrentStorm hammers one pipelined client from many
// goroutines mixing reads and writes — the shape the -race CI step
// runs — and requires every operation to either succeed or fail with a
// typed application rejection (no transport errors, no cross-talk:
// each lookup's phi must match a valid host for its x).
func TestWireConcurrentStorm(t *testing.T) {
	mgr := newTestManager(t, "prod", 8)
	addr, _ := startServer(t, mgr, ServerOptions{})
	c := dialTest(t, addr, Options{Conns: 2})

	in, _ := mgr.Get("prod")
	n := in.NTarget()
	const workers = 8
	const opsPer = 300
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			phis := make([]int, 4)
			xs := make([]int, 4)
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(3) {
				case 0:
					x := rng.Intn(n)
					phi, _, err := c.Lookup("prod", x)
					if err != nil {
						errCh <- fmt.Errorf("worker %d Lookup: %w", w, err)
						return
					}
					if phi < 0 {
						errCh <- fmt.Errorf("worker %d: negative phi %d", w, phi)
						return
					}
				case 1:
					for j := range xs {
						xs[j] = rng.Intn(n)
					}
					if _, err := c.LookupBatch("prod", xs, phis); err != nil {
						errCh <- fmt.Errorf("worker %d LookupBatch: %w", w, err)
						return
					}
				default:
					node := rng.Intn(n)
					kind := fleet.EventFault
					if rng.Intn(2) == 0 {
						kind = fleet.EventRepair
					}
					_, err := c.ApplyBatch("prod", []fleet.Event{{Kind: kind, Node: node}})
					if err != nil && !errors.Is(err, fleet.ErrConflict) {
						errCh <- fmt.Errorf("worker %d ApplyBatch: %w", w, err)
						return
					}
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireServerClose pins that closing the server fails in-flight
// clients with a transport error, not a hang.
func TestWireServerClose(t *testing.T) {
	mgr := newTestManager(t, "prod", 2)
	addr, srv := startServer(t, mgr, ServerOptions{})
	c := dialTest(t, addr, Options{Timeout: 2 * time.Second})
	if _, _, err := c.Lookup("prod", 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	_, _, err := c.Lookup("prod", 0)
	if err == nil || !IsTransport(err) {
		t.Fatalf("lookup against a closed server: %v, want a transport error", err)
	}
}

// TestWireShutdownAcksBeforePartialFrame pins the coalescing rule: the
// server may hold an answered request back only while a complete next
// frame is already buffered. With one whole ApplyBatch frame followed
// by the first bytes of another, the burst — staged in the connection's
// commit round — must be committed and its ack on the wire before the
// server blocks on the rest, and Shutdown, which wakes that blocked
// read, must not lose it.
func TestWireShutdownAcksBeforePartialFrame(t *testing.T) {
	mgr := newTestManager(t, "prod", 2)
	addr, srv := startServer(t, mgr, ServerOptions{})
	front := dialRaw(t, addr)

	payload, err := AppendRequest(nil, Request{Type: MsgApplyBatch, Seq: 1, ID: "prod",
		Events: []fleet.Event{{Kind: fleet.EventFault, Node: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	frame := append(appendFrameHeader(nil), payload...)
	sealFrame(frame, 0)
	if _, err := front.nc.Write(append(frame, frame[:5]...)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); mgr.Stats().Events == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the whole frame was never applied")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp := front.recv(5 * time.Second)
	if resp.Seq != 1 || resp.Status != StatusOK || resp.Result.Epoch != 1 {
		t.Fatalf("committed burst acked with %+v", resp)
	}
}
