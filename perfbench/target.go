package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

// target is checkd under test: one service.Server behind a loopback
// listener, or an in-process fleet.
type target struct {
	addrs []string
	stop  func()
}

// readyTimeout bounds the wait for /readyz (single server) or fleet
// readiness (first anti-entropy round).
const readyTimeout = 60 * time.Second

// startServer starts one checkd with the default service configuration
// and a file-backed journal at journalPath, and returns once /readyz
// reports ready, that is, once journal replay has converged.
func startServer(journalPath string) (*target, error) {
	srv := service.New(service.Config{JournalPath: journalPath})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	t := &target{
		addrs: []string{ln.Addr().String()},
		stop: func() {
			_ = hs.Close() // the listener and every connection; nothing is in flight
			<-served
			srv.Close()
		},
	}
	if err := awaitReady(t.addrs[0]); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// awaitReady polls /readyz until it answers 200.
func awaitReady(addr string) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(readyTimeout) //gcvet:detrand-ok a real deadline on a live listener
	for {
		resp, err := c.Get("http://" + addr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) { //gcvet:detrand-ok a real deadline on a live listener
			return fmt.Errorf("checkd at %s not ready after %v", addr, readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// startFleet starts a 3-replica in-process fleet with per-replica
// journals and the default breakers, hedging and anti-entropy, and
// returns once every replica is ready.
func startFleet() (*target, error) {
	f, err := fleet.New(fleet.Config{Replicas: replicas, Journal: true})
	if err != nil {
		return nil, err
	}
	if !f.AwaitReady(readyTimeout) {
		f.Close()
		return nil, errors.New("fleet not ready")
	}
	return &target{addrs: f.HTTPAddrs(), stop: f.Close}, nil
}

// copyFile copies src to a new file dst, synced, so every set-up replays
// byte-identical journal contents.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// getJSON fetches one JSON document from a checkd endpoint.
func getJSON(c *http.Client, url string, into any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
