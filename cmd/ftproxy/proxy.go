package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"ftnet/internal/obs"
	"ftnet/internal/shard"
)

// maxBodyBytes bounds a buffered request body. Instance-plane bodies
// are small JSON (an id+spec, an event burst); buffering is what makes
// the single retry after a redirect possible.
const maxBodyBytes = 8 << 20

// proxy is the HTTP codec adapter over a shard.Router: the router says
// which member to ask and what to make of a redirect hint, the proxy
// moves the request there over one shared upstream transport with
// persistent connections per daemon.
type proxy struct {
	peers  map[string]string // member name -> base URL
	router *shard.Router
	client *http.Client

	requests  *obs.Counter
	redirects *obs.Counter
	misroutes *obs.Counter // exhausted the retry: both attempts bounced
	upErrors  *obs.Counter
	reg       *obs.Registry
	hist      *obs.Histogram
}

func newProxy(peers map[string]string, replicas int, timeout time.Duration) *proxy {
	reg := obs.New()
	p := &proxy{
		peers:  peers,
		router: shard.NewRouter(peers, replicas),
		client: &http.Client{
			Timeout: timeout,
			// Redirect-following is the proxy's job (with override
			// learning), never the HTTP client's.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
		reg:       reg,
		requests:  reg.Counter("ftproxy_requests_total", "Requests routed to a shard owner."),
		redirects: reg.Counter("ftproxy_redirects_total", "Requests re-routed after a wrong-shard hint."),
		misroutes: reg.Counter("ftproxy_misroutes_total", "Requests still bounced after the redirect retry."),
		upErrors:  reg.Counter("ftproxy_upstream_errors_total", "Upstream connection failures."),
		hist:      reg.Histogram("ftproxy_request_seconds", "End-to-end proxied request latency."),
	}
	return p
}

func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"status\":\"ok\"}\n")
		return
	case r.URL.Path == "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		p.reg.WritePrometheus(w)
		return
	case r.URL.Path == "/v1/ring" && r.Method == http.MethodGet:
		p.serveRing(w)
		return
	}
	id, body, err := p.routeKey(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if id == "" {
		writeErr(w, http.StatusNotFound,
			"ftproxy: no instance id in request; fleet-wide endpoints are served by the daemons directly")
		return
	}
	start := time.Now()
	p.requests.Inc()
	p.forward(w, r, id, body)
	p.hist.Observe(time.Since(start))
}

// routeKey extracts the routing instance id and buffers the body (the
// body must be replayable for the redirect retry). An empty id with a
// nil error means the path carries none. The id is one segment of the
// path as the client escaped it, unescaped the way the daemon's mux
// will: "rack%2F7" routes as "rack/7", not as "rack".
func (p *proxy) routeKey(r *http.Request) (string, []byte, error) {
	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		b, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if err != nil {
			return "", nil, fmt.Errorf("ftproxy: read body: %v", err)
		}
		if len(b) > maxBodyBytes {
			return "", nil, fmt.Errorf("ftproxy: body over %d bytes", maxBodyBytes)
		}
		body = b
	}
	rest, ok := strings.CutPrefix(r.URL.EscapedPath(), "/v1/instances")
	if !ok {
		return "", body, nil
	}
	if rest == "" || rest == "/" {
		// POST /v1/instances carries the id in the create body.
		if r.Method != http.MethodPost {
			return "", body, nil
		}
		var req struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &req); err != nil || req.ID == "" {
			return "", nil, fmt.Errorf("ftproxy: create body has no instance id")
		}
		return req.ID, body, nil
	}
	seg, _, _ := strings.Cut(strings.TrimPrefix(rest, "/"), "/")
	id, err := url.PathUnescape(seg)
	if err != nil || id == "" {
		return "", nil, fmt.Errorf("ftproxy: no instance id in path segment %q", seg)
	}
	return id, body, nil
}

// forward sends the request to the id's owner; on a wrong-shard bounce
// whose hint the router follows it retries exactly once. Two bounces in
// a row mean the cluster is mid-cutover faster than we can chase —
// surface the second answer (with its hint) and let the client retry.
func (p *proxy) forward(w http.ResponseWriter, r *http.Request, id string, body []byte) {
	member := p.router.Owner(id)
	for attempt := 0; ; attempt++ {
		resp, err := p.send(r, p.peers[member], body)
		if err != nil {
			p.upErrors.Inc()
			writeErr(w, http.StatusBadGateway, fmt.Sprintf("ftproxy: upstream %s: %v", p.peers[member], err))
			return
		}
		owner := resp.Header.Get("X-Ftnet-Owner")
		if resp.StatusCode == http.StatusForbidden && attempt == 0 {
			if next, ok := p.router.Learn(id, owner, member); ok {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				p.redirects.Inc()
				member = next
				continue
			}
		}
		if resp.StatusCode == http.StatusForbidden && owner != "" {
			p.misroutes.Inc()
		}
		copyResponse(w, resp)
		return
	}
}

// send forwards the request as it came: the escaped path and the raw
// query verbatim, so the daemon reads the same id the router hashed.
func (p *proxy) send(r *http.Request, baseURL string, body []byte) (*http.Response, error) {
	target := baseURL + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.Header.Del("Connection")
	return p.client.Do(req)
}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// serveRing reports the proxy's routing view: members, vnode count,
// and how many ids are currently overridden away from the ring.
func (p *proxy) serveRing(w http.ResponseWriter) {
	ring := p.router.Ring()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"members":   ring.Members(), // sorted by the ring
		"peers":     p.peers,
		"replicas":  ring.Replicas(),
		"overrides": p.router.Overrides(),
	})
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
