package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smapreduce/internal/serve"
)

// startServer boots the simulation service on addr and prints the
// bound address. The "listening on" line goes to stdout in a fixed
// format so scripts (make serve-smoke) can parse the ephemeral port
// from ":0".
func startServer(stdout, stderr io.Writer, addr string, opts serve.Options) (*serve.Server, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(addr); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "smrsim: listening on %s\n", srv.Addr())
	fmt.Fprintf(stderr,
		"smrsim: serving /runs /ledger /version /metrics /trace /healthz /debug/pprof on %s\n",
		srv.Addr())
	return srv, nil
}

// notifyStop returns a channel that receives SIGINT and SIGTERM from
// now on. It is main's stop source for awaitShutdown; tests pass a
// channel of their own instead.
func notifyStop() <-chan os.Signal {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	return sigc
}

// awaitShutdown keeps the service up until stop delivers a signal,
// then drains it gracefully: intake stops, queued and running
// simulations finish (bounded by the -drain deadline), the ledger
// flushes, and the listener closes.
func awaitShutdown(stderr io.Writer, srv *serve.Server, drain time.Duration, stop <-chan os.Signal) {
	sig := <-stop
	fmt.Fprintf(stderr, "smrsim: %v: draining runs (deadline %s)\n", sig, drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "smrsim:", err)
	}
	if err := srv.Wait(); err != nil {
		fmt.Fprintln(stderr, "smrsim:", err)
	}
}
