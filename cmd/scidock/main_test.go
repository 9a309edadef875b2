package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestRunSmokeCampaign(t *testing.T) {
	if err := run("ad4", 2, 1, 4, "smoke", 1, true, false, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithMonitorAndQuery(t *testing.T) {
	err := run("vina", 2, 1, 4, "smoke", 1, true, true, true,
		"SELECT count(*) FROM ddocking")
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunAdaptiveMode(t *testing.T) {
	if err := run("adaptive", 3, 1, 4, "smoke", 1, true, false, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("nope", 2, 1, 4, "smoke", 1, true, false, false, ""); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run("ad4", 2, 1, 4, "nope", 1, true, false, false, ""); err == nil {
		t.Error("bad effort accepted")
	}
	if err := run("ad4", 0, 1, 4, "smoke", 1, true, false, false, ""); err == nil {
		t.Error("zero receptors accepted")
	}
	if err := run("ad4", 2, 1, 4, "smoke", 1, true, false, false, "NOT SQL"); err == nil {
		t.Error("bad SQL accepted")
	}
	if err := run("ad4", 2, 1, 0, "smoke", 1, true, false, false, ""); err == nil {
		t.Error("zero cores accepted")
	}
}

// TestValidateFlagsUpFront pins the fast-fail contract: bad
// enumerations are rejected with usage messages listing the valid
// values, before any dataset or engine work happens.
func TestValidateFlagsUpFront(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{validateFlags("nope", 2, 1, 4, "smoke"), "valid values are ad4, vina, adaptive"},
		{validateFlags("ad4", 2, 1, 4, "nope"), "valid values are smoke, campaign, quick"},
		{validateFlags("ad4", 2, 1, -3, "smoke"), "-cores"},
		{validateFlags("ad4", 0, 1, 4, "smoke"), "-receptors"},
		{validateFlags("ad4", 2, 0, 4, "smoke"), "-ligands"},
	}
	for i, c := range cases {
		if c.err == nil {
			t.Errorf("case %d: accepted", i)
			continue
		}
		if !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("case %d: error %q does not mention %q", i, c.err, c.want)
		}
	}
	if err := validateFlags("vina", 2, 1, 4, "quick"); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
}

// TestServeSmoke drives the resident service end to end in-process:
// start, submit a tiny campaign over HTTP, poll it to completion, run
// a provenance query, then shut down cleanly via context cancellation
// (the code path SIGTERM takes; see startServe).
func TestServeSmoke(t *testing.T) {
	base := "http://" + startServe(t)

	body, err := json.Marshal(map[string]any{
		"mode": "ad4", "receptors": 2, "ligands": 1, "cores": 4,
		"effort": "smoke", "seed": 3, "disable_failures": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID int64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == 0 {
		t.Fatalf("submit: status %d, id %d", resp.StatusCode, submitted.ID)
	}

	deadline := time.Now().Add(2 * time.Minute)
	var state string
	for time.Now().Before(deadline) {
		r, err := http.Get(fmt.Sprintf("%s/campaigns/%d", base, submitted.ID))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		state = st.State
		if state == "DONE" || state == "FAILED" || state == "CANCELLED" {
			break
		}
		runtime.Gosched()
	}
	if state != "DONE" {
		t.Fatalf("campaign ended in state %q, want DONE", state)
	}

	q, err := http.Post(fmt.Sprintf("%s/campaigns/%d/query", base, submitted.ID),
		"application/json", strings.NewReader(`{"sql": "SELECT count(*) FROM ddocking"}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.NewDecoder(q.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	q.Body.Close()
	if len(qr.Rows) != 1 || qr.Rows[0][0] == "0" {
		t.Errorf("served query rows = %v, want one nonzero count", qr.Rows)
	}
}

// startServe runs runServe on a loopback port and returns its address.
// Cleanup cancels the server's context (the code path SIGTERM takes)
// and requires a clean shutdown within a minute.
func startServe(t *testing.T) string {
	t.Helper()
	addrCh := make(chan string, 1)
	serveListening = func(addr string) { addrCh <- addr }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runServe(ctx, "127.0.0.1:0") }()
	select {
	case addr := <-addrCh:
		t.Cleanup(func() {
			serveListening = nil
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("shutdown: %v", err)
				}
			case <-time.After(time.Minute):
				t.Error("server did not shut down within a minute")
			}
		})
		return addr
	case err := <-done:
		serveListening = nil
		cancel()
		t.Fatalf("server exited early: %v", err)
		return ""
	}
}

// TestServeClosesStalledHeaders pins the header timeout: a client
// that opens a connection and never finishes its request headers is
// disconnected once serveReadHeaderTimeout passes, instead of holding
// the connection forever.
func TestServeClosesStalledHeaders(t *testing.T) {
	conn, err := net.Dial("tcp", startServe(t))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The blank line that ends the headers never comes.
	if _, err := conn.Write([]byte("GET /campaigns HTTP/1.1\r\nHost: scidock\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(serveReadHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = conn.Read(make([]byte, 512))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still holds a stalled connection after %v", time.Since(start).Round(time.Second))
	}
	if err == nil {
		t.Fatal("server answered a request whose headers never ended")
	}
}
