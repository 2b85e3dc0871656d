// Fleet: boot two judging daemons in-process, route an experiment
// across both through the consistent-hash fleet backend, and watch
// the metrics come back identical to the in-process run while the
// router's counters show the key space splitting — then kill one
// replica and watch the survivors absorb its share with the metrics
// still identical.
//
// In production the replicas are their own processes (`llm4vvd -addr
// ...` each) behind `llm4vv-router -replicas addr1,addr2`, and any
// number of workers point -serve-addr at the router; everything below
// is the same wiring minus the forks.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"

	llm4vv "repro"
	"repro/internal/server"
	"repro/internal/spec"
)

func main() {
	ctx := context.Background()

	// 1. Boot two replicas on loopback ports: the same backend and
	// seed on each, so any replica answers any prompt identically.
	addrs := make([]string, 2)
	servers := make([]*http.Server, 2)
	for i := range addrs {
		llm, err := llm4vv.NewBackend(llm4vv.DefaultBackend, llm4vv.DefaultModelSeed)
		if err != nil {
			panic(err)
		}
		srv := server.New(server.Config{
			LLM:     llm,
			Backend: llm4vv.DefaultBackend,
			Seed:    llm4vv.DefaultModelSeed,
		})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		servers[i] = &http.Server{Handler: srv.Handler()}
		go servers[i].Serve(ln)
		addrs[i] = ln.Addr().String()
	}
	fmt.Printf("replicas serving %s on %s\n\n", llm4vv.DefaultBackend, strings.Join(addrs, " and "))

	// 2. Name the fleet as a backend: prompts consistent-hash across
	// both replicas, each owning its share of the key space.
	fleetName := "fleet:" + strings.Join(addrs, ",")

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

	fleet, err := llm4vv.NewRunner(llm4vv.WithBackend(fleetName))
	if err != nil {
		panic(err)
	}
	defer fleet.Close() // stops the Runner's fleet Router
	fleetSum, err := fleet.DirectProbing(ctx, suite)
	if err != nil {
		panic(err)
	}

	fmt.Printf("in-process:  acc=%.2f%% bias=%+.3f (%d files)\n",
		100*localSum.Accuracy(), localSum.Bias(), localSum.Total)
	fmt.Printf("via fleet:   acc=%.2f%% bias=%+.3f (%d files)\n",
		100*fleetSum.Accuracy(), fleetSum.Bias(), fleetSum.Total)
	if localSum == fleetSum {
		fmt.Println("metrics are byte-identical through the fleet")
	} else {
		fmt.Println("METRICS DIVERGED — this should never happen")
	}

	// 4. Kill one replica mid-fleet and sweep again: its keys fail
	// over to the survivor and the metrics still cannot tell.
	servers[0].Close()
	fmt.Printf("\nkilled replica %s\n", addrs[0])
	again, err := fleet.DirectProbing(ctx, suite)
	if err != nil {
		panic(err)
	}
	if localSum == again {
		fmt.Println("metrics are byte-identical with one replica down")
	} else {
		fmt.Println("METRICS DIVERGED AFTER FAILOVER — this should never happen")
	}
}
