package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("handler_total", "Handler test counter.").Add(5)
	_, ok := reg.StartSpan(context.Background(), "query")
	ok.Child("pad").End()
	ok.SetStatus(true, false)
	ok.End()
	_, bad := reg.StartSpan(context.Background(), "query")
	bad.EndErr(errors.New("boom"), ErrClassTransport)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "handler_total 5") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}

	code, body = get(t, srv, "/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", code)
	}
	var traces []map[string]any
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("traces not JSON: %v\n%s", err, body)
	}
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2", len(traces))
	}
	// Newest first: the errored root leads. Every entry names its tree
	// and carries the root's outcome flags.
	if traces[0]["trace"] != bad.Trace().String() || traces[0]["err"] != "boom" ||
		traces[0]["err_class"] != ErrClassTransport || traces[0]["verified"] != false {
		t.Fatalf("newest trace = %v", traces[0])
	}
	if traces[1]["trace"] != ok.Trace().String() || traces[1]["op"] != "query" ||
		traces[1]["verified"] != true || traces[1]["spans"] != float64(2) {
		t.Fatalf("older trace = %v", traces[1])
	}
	// The phase numbers live in the tree, one child per phase.
	code, body = get(t, srv, "/debug/trace/"+ok.Trace().String())
	if code != http.StatusOK || !strings.Contains(body, `"op": "pad"`) {
		t.Fatalf("/debug/trace/{id} = %d:\n%s", code, body)
	}

	code, body = get(t, srv, "/debug/traces?n=1")
	if err := json.Unmarshal([]byte(body), &traces); err != nil || len(traces) != 1 || traces[0]["err"] != "boom" {
		t.Fatalf("/debug/traces?n=1 (code %d) = %v / %s", code, err, body)
	}
	// A bad or non-positive n falls back to the whole ring.
	for _, q := range []string{"?n=0", "?n=x"} {
		_, body = get(t, srv, "/debug/traces"+q)
		if err := json.Unmarshal([]byte(body), &traces); err != nil || len(traces) != 2 {
			t.Fatalf("/debug/traces%s = %v / %s", q, err, body)
		}
	}

	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get(t, srv, "/debug/vars"); code != http.StatusOK {
		t.Fatalf("/debug/vars = %d", code)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "").Inc()
	bound, closeFn, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "served_total 1") {
		t.Fatalf("served metrics missing counter:\n%s", body)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("expvar_total", "").Add(2)
	reg.PublishExpvar("telemetry-test")
	// A second publish under the same name must not panic (expvar.Publish
	// panics on duplicates) — the first registry keeps the name.
	NewRegistry().PublishExpvar("telemetry-test")

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	_, body := get(t, srv, "/debug/vars")
	if !strings.Contains(body, "telemetry-test") || !strings.Contains(body, "expvar_total") {
		t.Fatalf("/debug/vars missing published snapshot:\n%s", body)
	}
}
