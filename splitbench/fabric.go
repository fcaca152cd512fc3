package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/machine"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/router"
	"github.com/splitexec/splitexec/internal/service"
)

// The fabric mirrors a default deployment: `splitexec serve` shards with
// one host worker each behind `splitexec route`, all over loopback TCP.
const (
	shards  = 2
	clients = 2 // closed-loop clients, one per vCPU of the reference host
	// serveSeed is `splitexec serve`'s default -seed.
	serveSeed = 1
)

// serveConfig is the solver template `splitexec serve` builds by default:
// a C(8,8,4) Chimera, 256 sweeps per read, 20 CMR tries.
func serveConfig() core.Config {
	node := machine.SimpleNode()
	node.QPU.Topology = graph.Chimera{M: 8, N: 8, L: 4}
	return core.Config{
		Node:    node,
		Sampler: anneal.SamplerOptions{Sweeps: 256},
		Embed:   embed.Options{MaxTries: 20},
	}
}

type fabric struct {
	svcs    []*service.Service
	caches  []*core.EmbeddingCache
	rt      *router.Router
	clients []*service.Client
}

// newFabric starts the shards, the router and the clients.
func newFabric() (*fabric, error) {
	f := &fabric{}
	var addrs []string
	for i := 0; i < shards; i++ {
		cache := core.NewEmbeddingCache()
		svc, err := service.New(service.Options{
			Workers: 1,
			Fleet:   1,
			Seed:    serveSeed,
			Base:    serveConfig(),
			Cache:   cache,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.svcs = append(f.svcs, svc)
		f.caches = append(f.caches, cache)
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		addrs = append(addrs, addr.String())
	}
	rt, err := router.New(router.Options{Shards: addrs})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c, err := service.Dial(addr.String())
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

// close stops clients, router and shards, waiting for each to finish.
func (f *fabric) close() {
	for _, c := range f.clients {
		c.Close()
	}
	if f.rt != nil {
		f.rt.Drain()
	}
	for _, s := range f.svcs {
		s.CloseListener()
		s.Drain()
	}
}

// reply is one answered request as the client saw it.
type reply struct {
	resp    service.SolveResponse
	latency time.Duration
	err     error
}

// solveAll sends every QUBO through the fabric from the closed-loop
// clients: each client sends its next request only after its previous one
// returned. Replies are indexed like qs.
func (f *fabric) solveAll(qs []*qubo.QUBO, observe func(i int, start, end time.Time, r service.SolveResponse)) []reply {
	out := make([]reply, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range f.clients {
		wg.Add(1)
		go func(c *service.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				start := time.Now()
				resp, err := c.Solve(qs[i])
				end := time.Now()
				out[i] = reply{resp: resp, latency: end.Sub(start), err: err}
				if observe != nil && err == nil {
					observe(i, start, end, resp)
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// solveOne sends one warm-up QUBO on the first client.
func (f *fabric) solveOne(q *qubo.QUBO) error {
	if _, err := f.clients[0].Solve(q); err != nil {
		return fmt.Errorf("warm-up solve: %w", err)
	}
	return nil
}
