package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ftnet/internal/fleet"
)

// tornServer is a protocol-level fake: it accepts connections, reads
// exactly one request frame each, records its type, and hangs up
// without answering — the worst-case torn connection, where the
// request was fully delivered but the acknowledgement never arrives.
type tornServer struct {
	ln net.Listener

	mu   sync.Mutex
	seen []MsgType
}

func startTornServer(t *testing.T) *tornServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &tornServer{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go ts.readOne(nc)
		}
	}()
	return ts
}

func (ts *tornServer) readOne(nc net.Conn) {
	defer nc.Close()
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		return
	}
	size := binary.LittleEndian.Uint32(hdr[0:4])
	if size > MaxFrame {
		return
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(nc, payload); err != nil {
		return
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return
	}
	req, err := DecodeRequest(payload)
	if err != nil {
		return
	}
	ts.mu.Lock()
	ts.seen = append(ts.seen, req.Type)
	ts.mu.Unlock()
}

func (ts *tornServer) count(t MsgType) int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	n := 0
	for _, s := range ts.seen {
		if s == t {
			n++
		}
	}
	return n
}

// waitCount waits for the fake's async readOne goroutines to record
// their frames.
func (ts *tornServer) waitCount(t *testing.T, mt MsgType, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for ts.count(mt) < want {
		if time.Now().After(deadline) {
			t.Fatalf("saw %d %v frames, want %d", ts.count(mt), mt, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireTornConnectionReplaysOnlyReads pins the replay policy: when
// the connection dies after the request was delivered but before any
// response, the client resends idempotent reads exactly once and NEVER
// resends an un-acknowledged ApplyBatch — the burst may have committed
// just before the connection died, and re-applying it would double the
// transition.
func TestWireTornConnectionReplaysOnlyReads(t *testing.T) {
	ts := startTornServer(t)

	c, err := Dial(ts.ln.Addr().String(), Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, _, err = c.Lookup("prod", 3)
	if !IsTransport(err) {
		t.Fatalf("Lookup against a torn server: %v, want a transport error", err)
	}
	// Original + one retry on a fresh connection: exactly 2 frames.
	ts.waitCount(t, MsgLookup, 2)
	time.Sleep(20 * time.Millisecond)
	if n := ts.count(MsgLookup); n != 2 {
		t.Fatalf("idempotent Lookup sent %d times, want exactly 2 (one retry)", n)
	}

	_, err = c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 1}})
	if !IsTransport(err) {
		t.Fatalf("ApplyBatch against a torn server: %v, want a transport error", err)
	}
	ts.waitCount(t, MsgApplyBatch, 1)
	time.Sleep(20 * time.Millisecond)
	if n := ts.count(MsgApplyBatch); n != 1 {
		t.Fatalf("un-acked ApplyBatch sent %d times, want exactly 1 (never replayed)", n)
	}
}

// TestWireClientReconnects pins lazy re-dial: after the server restarts
// on the same address, the pooled client recovers without a new Dial —
// reads ride their built-in retry, and a later ApplyBatch (which never
// auto-retries) succeeds on the freshly dialed connection.
func TestWireClientReconnects(t *testing.T) {
	mgr := newTestManager(t, "prod", 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer(mgr, ServerOptions{})
	go srv.Serve(ln)

	c := dialTest(t, addr, Options{Conns: 1, Timeout: 2 * time.Second})
	if _, _, err := c.Lookup("prod", 0); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := NewServer(mgr, ServerOptions{})
	go srv2.Serve(ln2)
	defer srv2.Close()

	// The pooled connection is dead; the idempotent retry re-dials and
	// succeeds within this one call.
	if _, _, err := c.Lookup("prod", 0); err != nil {
		t.Fatalf("Lookup after server restart: %v", err)
	}
	if _, err := c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 0}}); err != nil {
		t.Fatalf("ApplyBatch after server restart: %v", err)
	}
}

// TestWireCorruptResponseFailsConnection pins the client's CRC and
// protocol checks: a server answering garbage fails the connection
// with a transport error instead of delivering corrupt data.
func TestWireCorruptResponseFailsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var hdr [frameHeaderSize]byte
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		payload := make([]byte, size)
		io.ReadFull(nc, payload)
		// Answer with a frame whose CRC does not match its payload.
		resp := []byte{VersionShard, byte(MsgLookup), 1, byte(StatusOK), 0, 0}
		var out []byte
		out = binary.LittleEndian.AppendUint32(out, uint32(len(resp)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(resp, castagnoli)+1)
		out = append(out, resp...)
		nc.Write(out)
	}()

	c, err := Dial(ln.Addr().String(), Options{Conns: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ApplyBatch("prod", []fleet.Event{{Kind: fleet.EventFault, Node: 1}})
	if !IsTransport(err) {
		t.Fatalf("corrupt response produced %v, want a transport error", err)
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("error %v does not unwrap to TransportError", err)
	}
}
