package main

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ftnet/internal/fleet"
	"ftnet/internal/fleet/fleettest"
)

// TestDaemonRemovedCacheFlags: there is no mapping cache to configure,
// and a flag for one must fail loudly — the flag package's usage error
// and exit status 2 — not be silently accepted. The test re-executes its
// own binary as ftnetd.
func TestDaemonRemovedCacheFlags(t *testing.T) {
	if args := os.Getenv("FTNETD_TEST_ARGS"); args != "" {
		os.Args = append([]string{"ftnetd"}, strings.Fields(args)...)
		main()
		os.Exit(0) // unreachable when the flag is rejected
	}
	for _, args := range []string{"-cache 1", "-cache-admission=false"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDaemonRemovedCacheFlags$")
		cmd.Env = append(os.Environ(), "FTNETD_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("ftnetd %s: err %v, want exit status 2 (output %s)", args, err, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined: -cache") {
			t.Errorf("ftnetd %s: output lacks the flag package's usage error: %s", args, out)
		}
	}
}

// TestPprofMux pins the -pprof-addr contract: the profiling handlers
// live on their own mux (index and the named profiles answer 200 with
// recognizable content), and the API handler serves none of them — so
// enabling profiling never widens the API surface.
func TestPprofMux(t *testing.T) {
	pp := httptest.NewServer(pprofMux())
	defer pp.Close()
	for path, want := range map[string]string{
		"/debug/pprof/":          "Types of profiles available",
		"/debug/pprof/cmdline":   "ftnetd",
		"/debug/pprof/goroutine": "goroutine",
	} {
		resp, err := http.Get(pp.URL + path + "?debug=1")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if path != "/debug/pprof/cmdline" && !strings.Contains(string(raw), want) {
			t.Errorf("GET %s: body %q does not mention %q", path, raw, want)
		}
	}

	api := fleettest.Start(t, fleet.DaemonConfig{}, nil)
	resp, err := http.Get(api.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("API mux serves /debug/pprof/ with %d, want 404", resp.StatusCode)
	}
}
