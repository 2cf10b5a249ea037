package fleet

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// TestGetPhiRanged pins the windowed dense endpoint:
// GET /v1/instances/{id}/phi?from=&count= streams only the requested
// window of the embedding, paginates cleanly off the end, and rejects
// malformed windows — the JSON-plane twin of the wire LookupBatch.
func TestGetPhiRanged(t *testing.T) {
	mgr := NewManager(Options{})
	in, err := mgr.Create("a", Spec{Kind: KindDeBruijn, M: 2, H: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A couple of faults so the window crosses remapped entries.
	if _, err := mgr.EventBatch("a", []Event{
		{Kind: EventFault, Node: 3}, {Kind: EventFault, Node: 7},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(mgr))
	defer ts.Close()

	get := func(t *testing.T, url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, buf[:n]
	}

	var full phiSliceResponse // the type that names what getPhi streams by hand
	code, body := get(t, ts.URL+"/v1/instances/a/phi")
	if code != http.StatusOK {
		t.Fatalf("full dump: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	n := in.NTarget()
	if len(full.Phi) != n {
		t.Fatalf("full dump has %d entries, want %d", len(full.Phi), n)
	}

	type window = phiSliceResponse
	getWindow := func(t *testing.T, query string) (window, int, []byte) {
		t.Helper()
		code, body := get(t, ts.URL+"/v1/instances/a/phi?"+query)
		var w window
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &w); err != nil {
				t.Fatalf("%s: %v in %s", query, err, body)
			}
		}
		return w, code, body
	}

	// A mid-instance window matches the same slice of the full dump.
	w, code, body := getWindow(t, "from=5&count=6")
	if code != http.StatusOK {
		t.Fatalf("from=5&count=6: status %d: %s", code, body)
	}
	if w.From != 5 || w.Count != 6 || len(w.Phi) != 6 {
		t.Fatalf("window header = %+v", w)
	}
	for i, phi := range w.Phi {
		if phi != full.Phi[5+i] {
			t.Fatalf("window phi[%d] = %d, full dump has %d", 5+i, phi, full.Phi[5+i])
		}
	}

	// Paginating in fixed steps reassembles the full embedding, the
	// final short page clamped rather than erroring.
	var paged []int
	step := 5
	for from := 0; from < n; from += step {
		w, code, body := getWindow(t, fmt.Sprintf("from=%d&count=%d", from, step))
		if code != http.StatusOK {
			t.Fatalf("page from=%d: status %d: %s", from, code, body)
		}
		if w.From != from {
			t.Fatalf("page echoes from=%d, want %d", w.From, from)
		}
		paged = append(paged, w.Phi...)
	}
	if len(paged) != n {
		t.Fatalf("pages reassemble to %d entries, want %d", len(paged), n)
	}
	for i := range paged {
		if paged[i] != full.Phi[i] {
			t.Fatalf("paged phi[%d] = %d, want %d", i, paged[i], full.Phi[i])
		}
	}

	// from alone windows the tail; count alone windows the head.
	if w, code, _ := getWindow(t, fmt.Sprintf("from=%d", n-3)); code != http.StatusOK || w.Count != 3 || len(w.Phi) != 3 {
		t.Fatalf("tail window = %+v (status %d)", w, code)
	}
	if w, code, _ := getWindow(t, "count=4"); code != http.StatusOK || w.From != 0 || len(w.Phi) != 4 {
		t.Fatalf("head window = %+v (status %d)", w, code)
	}

	// The empty end-of-range window succeeds with zero entries.
	if w, code, _ := getWindow(t, fmt.Sprintf("from=%d&count=%d", n, step)); code != http.StatusOK || w.Count != 0 || len(w.Phi) != 0 {
		t.Fatalf("end-of-range window = %+v (status %d)", w, code)
	}

	// Malformed and out-of-range windows are 400s.
	for _, q := range []string{"from=-1", "from=zzz", "count=-2", "count=x", fmt.Sprintf("from=%d", n+1)} {
		if _, code, body := getWindow(t, q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", q, code, body)
		}
	}
}

// TestGetPhiGzip pins the dense endpoint's content negotiation: with
// Accept-Encoding: gzip the stream is gzip-compressed, and much
// smaller; without it it is plain JSON; both decode to the same slice.
func TestGetPhiGzip(t *testing.T) {
	mgr := NewManager(Options{})
	if _, err := mgr.Create("big", Spec{Kind: KindDeBruijn, M: 2, H: 10, K: 4}); err != nil {
		t.Fatal(err)
	}
	get := func(encoding string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/v1/instances/big/phi", nil)
		req.Header.Set("Accept-Encoding", encoding)
		rec := httptest.NewRecorder()
		NewHTTPHandler(mgr).ServeHTTP(rec, req)
		return rec
	}
	var plain, gzipped phiSliceResponse
	if rec := get(""); rec.Header().Get("Content-Encoding") != "" || json.Unmarshal(rec.Body.Bytes(), &plain) != nil || len(plain.Phi) != 1024 {
		t.Fatalf("plain dump: %q, %d bytes, %d entries", rec.Header().Get("Content-Encoding"), rec.Body.Len(), len(plain.Phi))
	}
	rec := get("gzip")
	if got := rec.Header().Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", got)
	}
	// 1024 near-sequential integers compress far below their ~5KB of JSON.
	if rec.Body.Len() >= 2048 {
		t.Errorf("gzip body is %d bytes; compression seems off", rec.Body.Len())
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(zr).Decode(&gzipped); err != nil || !slices.Equal(gzipped.Phi, plain.Phi) {
		t.Errorf("gzip and plain phi slices differ (%v)", err)
	}
}
