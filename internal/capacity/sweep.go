package capacity

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// SweepConfig drives a concurrency sweep: for each level N in Levels,
// N worker goroutines issue requests through Do until PerLevel requests
// have been started (or LevelTimeout expires), and the level's spans
// are aggregated into a LevelStats.
type SweepConfig struct {
	// Levels are the offered concurrency steps, each ≥ 1.
	Levels []int
	// PerLevel is how many requests each level offers (default 100).
	PerLevel int
	// LevelTimeout bounds one level's wall time; when it expires the
	// level's context is canceled and in-flight requests are recorded as
	// Canceled, not errors (0: no bound).
	LevelTimeout time.Duration
	// Do issues one request under ctx. Its error is classified with
	// Classify; implementations that retry internally must return the
	// retry loop's error unwrapped enough for errors.Is to see
	// crerr.ErrCanceled / crerr.ErrOverloaded sentinels.
	Do func(ctx context.Context) error
}

// Sweep runs the configured load sweep and returns one LevelStats per
// level, in order. It stops early (returning what it measured plus the
// context error) only when the *sweep* context is canceled; a level
// timeout merely advances to the next level.
func Sweep(ctx context.Context, cfg SweepConfig) ([]LevelStats, error) {
	if cfg.Do == nil {
		return nil, errors.New("capacity: sweep needs a Do function")
	}
	if len(cfg.Levels) == 0 {
		return nil, errors.New("capacity: sweep needs at least one level")
	}
	perLevel := cfg.PerLevel
	if perLevel <= 0 {
		perLevel = 100
	}
	var out []LevelStats
	for _, n := range cfg.Levels {
		if n < 1 {
			return out, fmt.Errorf("capacity: concurrency level %d < 1", n)
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		st := runLevel(ctx, n, perLevel, cfg)
		out = append(out, st)
	}
	return out, nil
}

// runLevel executes one concurrency level.
func runLevel(ctx context.Context, n, perLevel int, cfg SweepConfig) LevelStats {
	lctx := ctx
	cancel := context.CancelFunc(func() {})
	if cfg.LevelTimeout > 0 {
		lctx, cancel = context.WithTimeout(ctx, cfg.LevelTimeout)
	}
	defer cancel()

	var (
		mu    sync.Mutex
		spans []Span
		next  int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= perLevel {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if lctx.Err() != nil {
					return
				}
				t0 := time.Now()
				err := cfg.Do(lctx)
				s := Span{
					Start:    t0,
					Duration: time.Since(t0),
					Outcome:  Classify(err),
					Level:    n,
				}
				mu.Lock()
				spans = append(spans, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	mu.Lock()
	defer mu.Unlock()
	return Aggregate(spans, n, wall)
}

// CurveFromLevels projects sweep aggregates onto USL fit points,
// skipping levels that served nothing (a level that was entirely shed
// or canceled carries no throughput signal).
func CurveFromLevels(levels []LevelStats) []Point {
	var pts []Point
	for _, l := range levels {
		if l.OK > 0 && l.Throughput > 0 {
			pts = append(pts, Point{N: float64(l.N), X: l.Throughput})
		}
	}
	return pts
}
