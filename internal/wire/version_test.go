package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

// asVersion returns a copy of a canonical payload under another
// version byte.
func asVersion(payload []byte, v byte) []byte {
	payload = bytes.Clone(payload)
	payload[0] = v
	return payload
}

// TestWireServerRefusesV1 pins what became of the pre-sharding
// revision: a frame at version 1 — good CRC, canonical body — is
// refused by the same path as any unknown version. The server hangs up
// without answering it, and other connections are not disturbed.
func TestWireServerRefusesV1(t *testing.T) {
	mgr := newTestManager(t, "prod", 2)
	addr, _ := startServer(t, mgr, ServerOptions{})
	other := dialTest(t, addr, Options{Conns: 1})
	front := dialRaw(t, addr)

	front.send(Request{Type: MsgLookup, Seq: 1, ID: "prod", X: 1})
	if resp := front.recv(5 * time.Second); resp.Status != StatusOK || resp.Version != VersionShard {
		t.Fatalf("well-formed frame before the v1 one answered %+v", resp)
	}
	before := mgr.Stats().Lookups
	payload, err := AppendRequest(nil, Request{Type: MsgLookup, Seq: 2, ID: "prod", X: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeTestFrame(front.nc, asVersion(payload, 1)); err != nil {
		t.Fatal(err)
	}
	front.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readTestFrame(front.br); !errors.Is(err, io.EOF) {
		t.Fatalf("after a v1 frame the connection read %v, want EOF (hung up, nothing answered)", err)
	}
	if after := mgr.Stats().Lookups; after != before {
		t.Fatalf("the v1 frame was handled: lookups %d -> %d", before, after)
	}
	if _, _, err := other.Lookup("prod", 1); err != nil {
		t.Fatalf("another connection after the hang-up: %v", err)
	}
}

// TestWireStatusVersionGate pins the codec's two closed sets on both
// directions: the version byte is VersionShard or the payload is not
// canonical, and a status byte past StatusWrongShard is not one.
func TestWireStatusVersionGate(t *testing.T) {
	req := Request{Type: MsgLookup, Seq: 1, ID: "prod", X: 3}
	resp := Response{Type: MsgLookup, Seq: 1, Status: StatusWrongShard, Msg: "owned elsewhere", Owner: "http://b:8100"}
	reqBytes, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	respBytes, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{1, VersionShard + 1} {
		req.Version, resp.Version = v, v
		if _, err := AppendRequest(nil, req); err == nil {
			t.Errorf("AppendRequest encoded version %d", v)
		}
		if _, err := AppendResponse(nil, resp); err == nil {
			t.Errorf("AppendResponse encoded version %d", v)
		}
		if _, err := DecodeRequest(asVersion(reqBytes, v)); err == nil {
			t.Errorf("DecodeRequest accepted version %d", v)
		}
		if _, err := DecodeResponse(asVersion(respBytes, v)); err == nil {
			t.Errorf("DecodeResponse accepted version %d", v)
		}
	}

	const unknown = StatusWrongShard + 1
	if _, err := AppendResponse(nil, Response{Type: MsgLookup, Seq: 1, Status: unknown, Msg: "?"}); err == nil {
		t.Errorf("AppendResponse encoded status %d", unknown)
	}
	payload := []byte{VersionShard, byte(MsgLookup)}
	payload = binary.AppendUvarint(payload, 1)
	payload = append(payload, byte(unknown), 1, '?')
	if _, err := DecodeResponse(payload); err == nil {
		t.Errorf("DecodeResponse accepted status %d", unknown)
	}
}
