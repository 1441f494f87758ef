package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"testing"
	"time"

	"mddm/internal/admission"
	"mddm/internal/casestudy"
	"mddm/internal/serve"
	"mddm/internal/temporal"
)

// TestMainSelfcheck drives the whole command once, end to end, in its
// richest configuration: synthetic data, warmed columns, the metrics
// surface, the result cache, and admission control, verified through
// the -selfcheck HTTP round trip. main parses flags and registers them
// on the global flag set, so it can run exactly once per test process —
// this invocation is chosen to cover the most.
func TestMainSelfcheck(t *testing.T) {
	os.Args = []string{"mdserve",
		"-selfcheck", "-metrics",
		"-gen", "200",
		"-columns", "4",
		"-result-cache", "1048576",
		"-admission", "4",
		"-admit-target", "250ms",
		"-tenant-rps", "1000",
		"-stale-on-shed", "30s",
		"-data", t.TempDir(),
	}
	main()
}

// TestGracefulShutdown drives serveUntilShutdown the way main does, with
// a real SIGTERM: a slow request is in flight when the signal lands; the
// server must stop admitting (new queries shed with ReasonDraining), let
// the slow request finish with its 200, and return nil — the exit-0
// path.
func TestGracefulShutdown(t *testing.T) {
	ref := temporal.MustDate("01/01/1999")
	cat := serve.NewCatalog()
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("patients", m); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(cat, serve.Limits{
		Admission: admission.Config{MaxConcurrency: 4},
	}, ref)

	// /slow parks in the handler until the gate opens — the in-flight
	// request Shutdown must wait for.
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(started) })
		<-gate
		fmt.Fprintln(w, "slow done")
	})
	hs := &http.Server{Handler: mux}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- serveUntilShutdown(ctx, hs, ln, srv, 10*time.Second) }()

	slowRes := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			slowRes <- err
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("slow request: status %d (%s)", resp.StatusCode, body)
		}
		slowRes <- err
	}()
	<-started

	// The signal main traps, delivered for real.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Drain begins: admission rejects new queries with the draining shed
	// while the slow request is still parked in its handler.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, qerr := srv.Query(context.Background(), "SELECT SETCOUNT(*) FROM patients")
		if errors.Is(qerr, serve.ErrOverloaded) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain never started: last query error %v", qerr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("serveUntilShutdown returned %v before in-flight work finished", err)
	default:
	}

	// Open the gate: the in-flight request completes and shutdown
	// finishes cleanly.
	close(gate)
	if err := <-slowRes; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntilShutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilShutdown did not return after drain")
	}
}

func TestBuildMOTable1(t *testing.T) {
	m, err := buildMO(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Facts().Len() == 0 {
		t.Fatal("Table 1 MO has no facts")
	}
}

func TestBuildMOSynthetic(t *testing.T) {
	m, err := buildMO(50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Facts().Len() == 0 {
		t.Fatal("synthetic MO has no facts")
	}
}
