package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/campaign"
)

// serveLimits is the admission policy of serve-mixed's resident
// service: two campaigns at once, one per tenant, eight queued per
// tenant before Submit refuses.
var serveLimits = campaign.Limits{MaxRunning: 2, MaxRunningPerTenant: 1, MaxQueuedPerTenant: 8}

// service is the resident campaign service on a loopback port, with
// the client the load generator talks to it through.
type service struct {
	m      *campaign.Manager
	srv    *http.Server
	base   string
	client *http.Client
	served chan error // Serve's return value
}

// startService starts a Manager behind campaign.NewHandler and returns
// once /healthz answers.
func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	m := campaign.NewManager(nil, serveLimits)
	s := &service{
		m:    m,
		srv:  &http.Server{Handler: campaign.NewHandler(m)},
		base: "http://" + ln.Addr().String(),
		// nproc connections at most: the submitter and the monitor.
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
			Timeout:   60 * time.Second,
		},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	var health struct {
		OK bool `json:"ok"`
	}
	if code, err := s.do(http.MethodGet, "/healthz", nil, &health); err != nil || code != http.StatusOK || !health.OK {
		s.stop()
		return nil, fmt.Errorf("service not healthy (status %d): %v", code, err)
	}
	return s, nil
}

// stop shuts the HTTP server and the Manager down and waits for both.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	//lint:ignore discarderr a shutdown timeout leaves nothing to do but exit
	_ = s.srv.Shutdown(ctx)
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
	}
	s.m.Shutdown(ctx)
	s.client.CloseIdleConnections()
}

// do sends one JSON request and decodes the JSON reply into out.
func (s *service) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s", method, path, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// status is GET /campaigns/{id}.
func (s *service) status(id int64) (campaign.Status, error) {
	var st campaign.Status
	_, err := s.do(http.MethodGet, fmt.Sprintf("/campaigns/%d", id), nil, &st)
	return st, err
}

// query is POST /campaigns/{id}/query.
func (s *service) query(id int64, sql string) ([][]string, error) {
	var res struct {
		Rows [][]string `json:"rows"`
	}
	_, err := s.do(http.MethodPost, fmt.Sprintf("/campaigns/%d/query", id), map[string]string{"sql": sql}, &res)
	return res.Rows, err
}
