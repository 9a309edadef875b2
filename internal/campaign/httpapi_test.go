package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
)

func doJSON(t *testing.T, client *http.Client, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPLifecycle drives the full served lifecycle — submit, poll
// to completion, provenance query — and pins that the served campaign
// is byte-identical to the same spec run one-shot.
func TestHTTPLifecycle(t *testing.T) {
	m := NewManager(parallel.NewPool(2), Limits{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	spec := tinySpec(21)

	var submitted struct {
		ID    int64 `json:"id"`
		State State `json:"state"`
	}
	if code := doJSON(t, srv.Client(), "POST", srv.URL+"/campaigns", spec, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if submitted.ID == 0 || submitted.State != StateQueued {
		t.Fatalf("submit response: %+v", submitted)
	}

	var st Status
	for {
		if code := doJSON(t, srv.Client(), "GET",
			fmt.Sprintf("%s/campaigns/%d", srv.URL, submitted.ID), nil, &st); code != http.StatusOK {
			t.Fatalf("status code = %d", code)
		}
		if st.State.Terminal() {
			break
		}
		runtime.Gosched()
	}
	if st.State != StateDone {
		t.Fatalf("campaign ended %s (%s), want DONE", st.State, st.Error)
	}
	if st.Activations == 0 || st.Problems < 0 {
		t.Errorf("served status incomplete: %+v", st)
	}

	var qr struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	code := doJSON(t, srv.Client(), "POST",
		fmt.Sprintf("%s/campaigns/%d/query", srv.URL, submitted.ID),
		map[string]string{"sql": "SELECT count(*) FROM ddocking"}, &qr)
	if code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if len(qr.Rows) != 1 || len(qr.Rows[0]) != 1 || qr.Rows[0][0] == "0" {
		t.Errorf("served provenance query returned %+v, want one nonzero count", qr)
	}

	var list []Status
	if code := doJSON(t, srv.Client(), "GET", srv.URL+"/campaigns", nil, &list); code != http.StatusOK || len(list) != 1 {
		t.Errorf("list: code %d, %d campaigns", code, len(list))
	}

	// The acceptance bar: served execution is byte-identical to the
	// one-shot CLI path for the same spec.
	served, err := m.Wait(context.Background(), submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertCampaignsIdentical(t, "served vs one-shot", served, oneShot)
}

// TestHTTPCancel cancels a running campaign over the wire.
func TestHTTPCancel(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	spec := tinySpec(22)
	m := NewManager(parallel.NewPool(2), Limits{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	id, err := m.SubmitConfig(spec, blockingConfig(t, spec, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var cancelled struct {
		State State `json:"state"`
	}
	if code := doJSON(t, srv.Client(), "DELETE",
		fmt.Sprintf("%s/campaigns/%d", srv.URL, id), nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel status = %d", code)
	}
	if cancelled.State != StateCancelling {
		t.Errorf("cancel state = %s, want CANCELLING", cancelled.State)
	}
	close(release)
	if _, err := m.Wait(context.Background(), id); err == nil {
		t.Error("cancelled campaign completed without error")
	}
	var st Status
	doJSON(t, srv.Client(), "GET", fmt.Sprintf("%s/campaigns/%d", srv.URL, id), nil, &st)
	if st.State != StateCancelled {
		t.Errorf("final state = %s, want CANCELLED", st.State)
	}
}

// TestHTTPErrors covers the API's failure surface.
func TestHTTPErrors(t *testing.T) {
	m := NewManager(parallel.NewPool(1), Limits{})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	client := srv.Client()

	var apiErr struct {
		Error string `json:"error"`
	}
	oversize := `{"tenant":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, c := range []struct {
		name, path, body string
		code             int
		want             string // substring of the error message
	}{
		{"bad mode", "/campaigns", `{"mode":"quantum"}`, http.StatusBadRequest, "valid: ad4, vina, adaptive"},
		{"malformed", "/campaigns", "{not json", http.StatusBadRequest, "decoding spec"},
		{"removed field", "/campaigns", `{"precision":"tolerance"}`, http.StatusBadRequest, `"precision"`},
		{"typo field", "/campaigns", `{"receptor":5}`, http.StatusBadRequest, `"receptor"`},
		{"oversize spec", "/campaigns", oversize, http.StatusRequestEntityTooLarge, "too large"},
		{"oversize query", "/campaigns/99/query", oversize, http.StatusRequestEntityTooLarge, "too large"},
	} {
		resp, err := client.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		apiErr.Error = ""
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Errorf("%s: decoding error body: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.code)
		}
		if !strings.Contains(apiErr.Error, c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, apiErr.Error, c.want)
		}
	}
	if code := doJSON(t, client, "GET", srv.URL+"/campaigns/99", nil, &apiErr); code != http.StatusNotFound {
		t.Errorf("unknown id status = %d", code)
	}
	if code := doJSON(t, client, "DELETE", srv.URL+"/campaigns/99", nil, &apiErr); code != http.StatusNotFound {
		t.Errorf("cancel unknown status = %d", code)
	}
	if code := doJSON(t, client, "GET", srv.URL+"/campaigns/notanid", nil, &apiErr); code != http.StatusBadRequest {
		t.Errorf("bad id status = %d", code)
	}
	if code := doJSON(t, client, "POST", srv.URL+"/campaigns/99/query",
		map[string]string{}, &apiErr); code != http.StatusBadRequest && code != http.StatusNotFound {
		t.Errorf("missing sql status = %d", code)
	}

	var health struct {
		OK   bool       `json:"ok"`
		Pool PoolStatus `json:"pool"`
	}
	if code := doJSON(t, client, "GET", srv.URL+"/healthz", nil, &health); code != http.StatusOK || !health.OK {
		t.Errorf("healthz: code %d, %+v", code, health)
	}
}
