package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"ftnet/internal/fleet"
)

// FuzzWireDecode pins the codec's safety properties on arbitrary
// bytes: neither decoder ever panics, and the accepted language is
// exactly the canonical encodings — any payload a decoder accepts must
// re-encode byte-for-byte, so there are no two wire forms of one
// message (the journal codec's discipline, applied to the RPC plane).
// It also pins what the proxy relies on: validating in place (the
// walkers with no destination) accepts exactly what the decoders
// accept, and a payload forwarded the proxy's way — a new head, the
// rest verbatim — decodes to the same message under the new head.
func FuzzWireDecode(f *testing.F) {
	seed := [][]byte{
		{}, {VersionShard}, {VersionShard, byte(MsgLookup)},
		{0xff, 0xff, 0xff, 0xff},
	}
	// asV1 is a canonical payload under the retired version byte: the
	// decoders must refuse it whatever follows.
	asV1 := func(b []byte) []byte {
		b = bytes.Clone(b)
		b[0] = 1
		return b
	}
	reqs := []Request{
		{Type: MsgLookup, Seq: 1, ID: "prod", X: 7},
		{Type: MsgLookupBatch, Seq: 9, ID: "a", Xs: []int{0, 1, 2, 1 << 20}},
		{Type: MsgLookupBatch, Seq: 0, ID: "empty"},
		{Type: MsgApplyBatch, Seq: 1 << 40, ID: "x", Events: []fleet.Event{
			{Kind: fleet.EventFault, Node: 3}, {Kind: fleet.EventRepair, Node: 0},
		}},
		{Type: MsgLookup, Seq: 2, ID: "pre-shard", X: 1},
	}
	for i, r := range reqs {
		b, err := AppendRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		if i == len(reqs)-1 {
			b = asV1(b)
		}
		seed = append(seed, b)
	}
	resps := []Response{
		{Type: MsgLookup, Seq: 1, Phi: 5, Epoch: 3},
		{Type: MsgLookup, Seq: 2, Status: StatusNotFound, Msg: "no such instance"},
		{Type: MsgLookupBatch, Seq: 3, Epoch: 9, Phis: []int{4, 4, 0}},
		{Type: MsgApplyBatch, Seq: 4, Result: fleet.EventResult{Epoch: 2, NumFaults: 1, Budget: 3, Applied: 2}},
		{Type: MsgApplyBatch, Seq: 5, Status: StatusReadOnly, Msg: "read-only follower"},
		{Type: MsgApplyBatch, Seq: 6, Status: StatusWrongShard, Msg: "owned by shard b", Owner: "http://b:8100"},
		{Type: MsgLookup, Seq: 7, Status: StatusReadOnly, Msg: "owned by shard b (owner http://b:8100)"},
		{Type: MsgLookup, Seq: 8, Phi: 2, Epoch: 1},
	}
	for i, r := range resps {
		b, err := AppendResponse(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		if i >= len(resps)-2 {
			b = asV1(b)
		}
		seed = append(seed, b)
	}
	// The fast paths' edges as xs and as phis, and each vector again with
	// a non-minimal 0x80 0x00 in its middle.
	emptyReq, _ := AppendRequest(nil, Request{Type: MsgLookupBatch, Seq: 300, ID: "edge"})
	emptyResp, _ := AppendResponse(nil, Response{Type: MsgLookupBatch, Seq: 300, Epoch: 128})
	seed = append(seed, withVector(emptyReq, edgeValues...)...)
	seed = append(seed, withVector(emptyResp, edgeValues...)...)
	for _, s := range seed {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequest(b)
		h, werr := walkRequest(b, nil)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeRequest says %v, validating in place says %v: %x", err, werr, b)
		}
		if err == nil {
			out, err := AppendRequest(nil, req)
			if err != nil {
				t.Fatalf("accepted request %+v does not re-encode: %v", req, err)
			}
			if !bytes.Equal(out, b) {
				t.Fatalf("request round-trip mismatch:\n in  %x\n out %x", b, out)
			}
			var q writeQueue
			q.relay(h.t, h.seq+1, b[h.rest:])
			req.Seq = h.seq + 1
			want, _ := AppendRequest(nil, req)
			if got := q.active[frameHeaderSize:]; !bytes.Equal(got, want) {
				t.Fatalf("relayed request mismatch:\n got  %x\n want %x", got, want)
			}
		}
		resp, err := DecodeResponse(b)
		rh, werr := walkResponse(b, nil)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeResponse says %v, validating in place says %v: %x", err, werr, b)
		}
		if err == nil {
			out, err := AppendResponse(nil, resp)
			if err != nil {
				t.Fatalf("accepted response %+v does not re-encode: %v", resp, err)
			}
			if !bytes.Equal(out, b) {
				t.Fatalf("response round-trip mismatch:\n in  %x\n out %x", b, out)
			}
			if rh.status != resp.Status || rh.seq != resp.Seq {
				t.Fatalf("walker head %+v disagrees with %+v", rh, resp)
			}
			// Relayed as the proxy does: under another seq.
			var q writeQueue
			q.relay(rh.t, rh.seq+1, b[rh.rest:])
			resp.Seq = rh.seq + 1
			want, _ := AppendResponse(nil, resp)
			if got := q.active[frameHeaderSize:]; !bytes.Equal(got, want) {
				t.Fatalf("relayed response mismatch:\n got  %x\n want %x", got, want)
			}
		}
	})
}

// edgeValues sit on either side of the boundaries of journal.Cursor's
// one- and two-byte fast paths.
var edgeValues = []uint64{127, 128, 16383, 16384, 1 << 21}

// withVector takes a canonical payload that ends in an empty counted
// vector (its last byte the zero count) and returns it with vals in that
// vector's place, then again with a non-minimal 0x80 0x00 spliced into
// the vector's middle (and counted).
func withVector(empty []byte, vals ...uint64) [][]byte {
	head := empty[:len(empty)-1]
	enc := func(mid []byte) []byte {
		n := len(vals)
		if mid != nil {
			n++
		}
		b := binary.AppendUvarint(bytes.Clone(head), uint64(n))
		for i, v := range vals {
			if i == len(vals)/2 {
				b = append(b, mid...)
			}
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	return [][]byte{enc(nil), enc([]byte{0x80, 0x00})}
}

// TestWireWalkersValidateAsTheyDecode pins what the proxy leans on: a
// walk with no destination — the vectors checked a stack chunk at a
// time — rejects exactly what the same walk with one rejects, with the
// same error, over vectors that end inside a chunk or past one, every
// cut of them short, a non-minimal value and a value past MaxInt
// spliced in.
func TestWireWalkersValidateAsTheyDecode(t *testing.T) {
	long := make([]uint64, 40)
	for i := range long {
		long[i] = uint64(i) * 997
	}
	overflow := append(slices.Clone(long[:35]), math.MaxInt+1, 5)
	req, _ := AppendRequest(nil, Request{Type: MsgLookupBatch, Seq: 5, ID: "w"})
	resp, _ := AppendResponse(nil, Response{Type: MsgLookupBatch, Seq: 5, Epoch: 9})
	errText := func(err error) string {
		if err == nil {
			return "accepted"
		}
		return err.Error()
	}
	var payloads [][]byte
	for _, tc := range []struct {
		vals []uint64
		ok   bool // whole and minimal, is the vector canonical?
	}{{edgeValues, true}, {long, true}, {overflow, false}} {
		for _, pair := range [][][]byte{withVector(req, tc.vals...), withVector(resp, tc.vals...)} {
			// pair[0] is a request or a response; pair[1], spliced, is
			// never canonical.
			_, rerr := walkRequest(pair[0], nil)
			_, serr := walkResponse(pair[0], nil)
			if (rerr == nil || serr == nil) != tc.ok {
				t.Fatalf("%x: request walk %s, response walk %s", pair[0], errText(rerr), errText(serr))
			}
			if _, rerr = walkRequest(pair[1], nil); rerr == nil {
				t.Fatalf("%x: non-minimal value accepted", pair[1])
			}
			if _, serr = walkResponse(pair[1], nil); serr == nil {
				t.Fatalf("%x: non-minimal value accepted", pair[1])
			}
			payloads = append(payloads, pair...)
		}
	}
	for _, p := range payloads {
		for cut := 0; cut <= len(p); cut++ {
			b := p[:cut]
			_, werr := walkRequest(b, &Request{Xs: make([]int, 3)})
			_, verr := walkRequest(b, nil)
			if errText(werr) != errText(verr) {
				t.Fatalf("request %x: with a destination %s, without %s", b, errText(werr), errText(verr))
			}
			_, werr = walkResponse(b, &Response{Phis: make([]int, 3)})
			_, verr = walkResponse(b, nil)
			if errText(werr) != errText(verr) {
				t.Fatalf("response %x: with a destination %s, without %s", b, errText(werr), errText(verr))
			}
		}
	}
}

// TestWireCodecRoundTrip is the deterministic subset of the fuzz
// property, so a plain `go test` run still pins encode/decode equality
// for representative messages of every type.
func TestWireCodecRoundTrip(t *testing.T) {
	reqs := []Request{
		{Type: MsgLookup, Seq: 42, ID: "prod-0", X: 0},
		{Type: MsgLookupBatch, Seq: 7, ID: "i", Xs: []int{5, 5, 5}},
		{Type: MsgApplyBatch, Seq: 1, ID: "k", Events: []fleet.Event{{Kind: fleet.EventFault, Node: 12}}},
	}
	for _, r := range reqs {
		b, err := AppendRequest(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", r, err)
		}
		if got.Type != r.Type || got.Seq != r.Seq || got.ID != r.ID || got.X != r.X ||
			len(got.Xs) != len(r.Xs) || len(got.Events) != len(r.Events) {
			t.Fatalf("request round-trip: got %+v, want %+v", got, r)
		}
	}
	resps := []Response{
		{Type: MsgLookup, Seq: 3, Phi: 9, Epoch: 4},
		{Type: MsgLookupBatch, Seq: 8, Status: StatusBudget, Msg: "fleet: fault budget exhausted"},
		{Type: MsgApplyBatch, Seq: 2, Result: fleet.EventResult{Epoch: 6, NumFaults: 2, Budget: 1, Applied: 4}},
		{Type: MsgLookup, Seq: 9, Status: StatusWrongShard, Msg: "owned by shard b", Owner: "http://b:8100"},
	}
	for _, r := range resps {
		b, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", r, err)
		}
		if got.Type != r.Type || got.Seq != r.Seq || got.Status != r.Status ||
			got.Msg != r.Msg || got.Owner != r.Owner || got.Phi != r.Phi || got.Epoch != r.Epoch ||
			got.Result != r.Result {
			t.Fatalf("response round-trip: got %+v, want %+v", got, r)
		}
	}

	// Canonical-form rejections: a non-minimal uvarint and trailing
	// bytes must both fail, or two byte strings would mean one message.
	good, _ := AppendRequest(nil, Request{Type: MsgLookup, Seq: 1, ID: "a", X: 0})
	if _, err := DecodeRequest(append(good, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	nonMinimal := []byte{VersionShard, byte(MsgLookup), 0x80, 0x00, 1, 'a', 0}
	if _, err := DecodeRequest(nonMinimal); err == nil {
		t.Fatal("non-minimal uvarint accepted")
	}
}
