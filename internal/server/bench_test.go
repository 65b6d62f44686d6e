package server

import (
	"context"
	"testing"
	"time"
)

// benchRequests pre-builds a pool of distinct requests so the benchmark
// exercises real compilations rather than one hot fingerprint.
func benchRequests(n int) []*Request {
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = tupleRequest(i)
	}
	return reqs
}

// BenchmarkServerThroughput measures end-to-end Submit throughput with
// caching off: every request pays admission, queueing and a full
// compile.
func BenchmarkServerThroughput(b *testing.B) {
	s := New(Config{
		QueueDepth:       1024,
		DefaultTimeout:   10 * time.Second,
		CacheEntries:     -1,
		BreakerThreshold: -1,
	})
	defer s.Close()
	reqs := benchRequests(64)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := reqs[i%len(reqs)]
			i++
			if _, err := s.Submit(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServerCachedThroughput measures the content-addressed cache
// fast path: after warmup every request is a hit.
func BenchmarkServerCachedThroughput(b *testing.B) {
	s := New(Config{
		QueueDepth:       1024,
		DefaultTimeout:   10 * time.Second,
		CacheEntries:     128,
		BreakerThreshold: -1,
	})
	defer s.Close()
	reqs := benchRequests(64)
	for _, r := range reqs { // warm the cache
		if _, err := s.Submit(context.Background(), r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := reqs[i%len(reqs)]
			i++
			resp, err := s.Submit(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("expected a cache hit after warmup")
			}
		}
	})
}
