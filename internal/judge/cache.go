package judge

import (
	"context"
	"sync"
)

// Cached wraps an LLM with a concurrency-safe memo keyed on the
// prompt's content hash (PromptKey), kept for the wrapper's lifetime.
// It is sound for deterministic endpoints (the simulated model's
// response is a pure function of seed and prompt). Concurrent misses
// on the same prompt share one endpoint call through an Inflight
// table. Failed completions are never memoised.
//
// The wrapper always implements ContextLLM and BatchLLM, reaching the
// inner endpoint through CompleteAll, so the inner cancellation and
// batch paths still apply. When the endpoint can also author tests (a
// GenerateTest method, like internal/model) the returned value keeps
// that, uncached: the generation loop's per-nonce prompts are unique.
func Cached(llm LLM) LLM {
	c := &cachedLLM{inner: llm, memo: map[PromptKey]string{}}
	if g, ok := llm.(generator); ok {
		return &cachedAuthor{cachedLLM: c, gen: g}
	}
	return c
}

// generator mirrors the authoring side of internal/model without
// importing it (judge must stay model-agnostic).
type generator interface {
	GenerateTest(prompt string) (code, defect string)
}

type cachedLLM struct {
	inner    LLM
	inflight Inflight
	mu       sync.Mutex
	memo     map[PromptKey]string
}

func (c *cachedLLM) Complete(prompt string) string {
	resp, _ := c.CompleteContext(context.Background(), prompt)
	return resp
}

func (c *cachedLLM) CompleteContext(ctx context.Context, prompt string) (string, error) {
	resps, err := c.CompleteBatch(ctx, []string{prompt})
	if err != nil {
		return "", err
	}
	return resps[0], nil
}

// CompleteBatch resolves a shard through the memo. When any prompt
// misses, the shard goes through the in-flight table: the prompts this
// caller leads are checked against the memo again and the misses sent
// to the inner endpoint in one CompleteAll call, while prompts led by
// a concurrent caller are waited on rather than re-asked.
func (c *cachedLLM) CompleteBatch(ctx context.Context, prompts []string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]string, len(prompts))
	keys := make([]PromptKey, len(prompts))
	for i, p := range prompts {
		keys[i] = KeyOf(p)
	}
	hits := 0
	c.mu.Lock()
	for i, k := range keys {
		if resp, ok := c.memo[k]; ok {
			out[i] = resp
			hits++
		}
	}
	c.mu.Unlock()
	if hits == len(prompts) {
		return out, nil
	}
	err := c.inflight.Do(ctx, keys, out, func(led []int) ([]string, error) {
		resps := make([]string, len(led))
		var miss []int // positions in led the memo lacks
		var missing []string
		c.mu.Lock()
		for n, i := range led {
			if resp, ok := c.memo[keys[i]]; ok {
				resps[n] = resp
				continue
			}
			miss = append(miss, n)
			missing = append(missing, prompts[i])
		}
		c.mu.Unlock()
		if len(miss) == 0 {
			return resps, nil
		}
		got, err := CompleteAll(ctx, c.inner, missing)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		for m, n := range miss {
			resps[n] = got[m]
			c.memo[keys[led[n]]] = got[m]
		}
		c.mu.Unlock()
		return resps, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

type cachedAuthor struct {
	*cachedLLM
	gen generator
}

func (c *cachedAuthor) GenerateTest(prompt string) (code, defect string) {
	return c.gen.GenerateTest(prompt)
}
