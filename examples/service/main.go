// Service: boot the judging daemon in-process, point an experiment at
// it through the "remote:<addr>" backend, and watch the metrics come
// back identical to the in-process run while the daemon's counters
// show micro-batching and dedup at work — the whole judge-as-a-service
// loop without leaving one process.
//
// In production the daemon is its own process (`llm4vvd -addr ...`)
// and any number of workers select it with `-serve-addr`; everything
// below is the same wiring minus the fork.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"

	llm4vv "repro"
	"repro/internal/server"
	"repro/internal/spec"
)

func main() {
	ctx := context.Background()

	// 1. Boot the daemon on a loopback port: the default simulated
	// backend behind the micro-batching HTTP front.
	llm, err := llm4vv.NewBackend(llm4vv.DefaultBackend, llm4vv.DefaultModelSeed)
	if err != nil {
		panic(err)
	}
	srv := server.New(server.Config{
		LLM:        llm,
		Backend:    llm4vv.DefaultBackend,
		Seed:       llm4vv.DefaultModelSeed,
		Registered: llm4vv.Backends(),
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	fmt.Printf("daemon serving %s on %s\n\n", llm4vv.DefaultBackend, ln.Addr())

	// 2. Name the daemon as a backend. Every experiment can select it
	// by name, exactly like an in-process endpoint.
	remoteName := "remote:" + ln.Addr().String()

	// 3. Judge the same suite both ways.
	suite := llm4vv.PartOneSpec(spec.OpenACC).Scaled(8)

	local, err := llm4vv.NewRunner()
	if err != nil {
		panic(err)
	}
	localSum, err := local.DirectProbing(ctx, suite)
	if err != nil {
		panic(err)
	}

	remote, err := llm4vv.NewRunner(llm4vv.WithBackend(remoteName))
	if err != nil {
		panic(err)
	}
	remoteSum, err := remote.DirectProbing(ctx, suite)
	if err != nil {
		panic(err)
	}

	fmt.Printf("in-process:  acc=%.2f%% bias=%+.3f (%d files)\n",
		100*localSum.Accuracy(), localSum.Bias(), localSum.Total)
	fmt.Printf("via daemon:  acc=%.2f%% bias=%+.3f (%d files)\n",
		100*remoteSum.Accuracy(), remoteSum.Bias(), remoteSum.Total)
	if localSum == remoteSum {
		fmt.Println("metrics are byte-identical through the service")
	} else {
		fmt.Println("METRICS DIVERGED — this should never happen")
	}

	// 4. The daemon's counters show what the wire cost: the Runner's
	// judge stage sent whole batches, so endpoint calls stay far below
	// the prompt count.
	st := srv.Stats()
	fmt.Printf("\ndaemon stats: %d batch requests, %d endpoint calls for %d prompts, %d store/dedup hits\n",
		st.BatchRequests, st.EndpointCalls, st.EndpointPrompts, st.StoreHits)
}
