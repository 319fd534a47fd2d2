package pipeline

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"implicate/internal/query"
	"implicate/internal/snapshot"
	"implicate/internal/stream"
)

// registerPropSuite registers three non-sharing partition-safe statements
// — a plain one, a filtered one and a grouped one — so per-statement
// estimator blobs compare one-to-one across runs regardless of
// estimator-sharing heuristics. The grouped statement's two-attribute
// route key takes the planner's key-assembly branch; the others take its
// single-attribute fast path.
func registerPropSuite(t *testing.T, eng *query.Engine, backend query.Backend) {
	t.Helper()
	for _, sql := range []string{
		`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1`,
		`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1 AND Service = 'svc1'`,
		`SELECT COUNT(DISTINCT Source) FROM s WHERE Source IMPLIES Destination WITH SUPPORT >= 3, MULTIPLICITY <= 2, CONFIDENCE >= 0.6 TOP 1 GROUP BY Service`,
	} {
		if _, err := eng.RegisterSQL(sql, backend); err != nil {
			t.Fatalf("register %q: %v", sql, err)
		}
	}
}

// estBlobs marshals each statement's estimator, giving a per-statement
// state fingerprint comparable across runs.
func estBlobs(t *testing.T, eng *query.Engine) [][]byte {
	t.Helper()
	var blobs [][]byte
	for _, st := range eng.Statements() {
		blob, err := snapshot.Marshal(st.Estimator())
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

func blobsEqual(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// runDirect drives batches through Pool.Dispatch — the single-dispatcher
// path — and returns the per-statement state blobs.
func runDirect(t *testing.T, backend query.Backend, batches [][]stream.Tuple, workers int) [][]byte {
	t.Helper()
	eng := query.NewEngine(testSchema(t))
	registerPropSuite(t, eng, backend)
	pool, err := New(eng, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range batches {
		pool.Dispatch(pool.Plan(ts))
	}
	pool.Fence()
	blobs := estBlobs(t, eng)
	pool.Close()
	return blobs
}

// runFair drives batches through a Fair lane and returns the
// per-statement state blobs.
func runFair(t *testing.T, backend query.Backend, batches [][]stream.Tuple, workers int) [][]byte {
	t.Helper()
	eng := query.NewEngine(testSchema(t))
	registerPropSuite(t, eng, backend)
	pool, err := New(eng, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFair(64)
	l := f.AddLane("t", 1, 8, pool, nil)
	for _, ts := range batches {
		if _, ok := l.Enqueue(pool.Plan(ts)); !ok {
			t.Fatal("lane refused an enqueue")
		}
	}
	f.RemoveLane(l)
	f.Close()
	pool.Fence()
	blobs := estBlobs(t, eng)
	pool.Close()
	return blobs
}

// TestShardedDispatchDeterminism is the parallel-dispatch property test:
// for every partition-safe backend, engine state is bit-identical across
// {direct Pool dispatch, fair dispatch} × workers {1,2,4,8}, and every
// combination equals the serial reference. Run with -race: the fair runs
// hand batches from producer goroutines to the dispatcher goroutine.
func TestShardedDispatchDeterminism(t *testing.T) {
	batches := workload(24, 300)
	for _, name := range []string{"sharded", "exact-striped"} {
		backend := backends(42)[name]
		t.Run(name, func(t *testing.T) {
			serial := query.NewEngine(testSchema(t))
			registerPropSuite(t, serial, backend)
			for _, ts := range batches {
				serial.ProcessBatch(ts)
			}
			want := estBlobs(t, serial)
			for _, workers := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("workers=%d", workers)
				if got := runDirect(t, backend, batches, workers); !blobsEqual(got, want) {
					t.Errorf("%s: direct-dispatch state diverged from serial", label)
				}
				if got := runFair(t, backend, batches, workers); !blobsEqual(got, want) {
					t.Errorf("%s: fair-dispatch state diverged from serial", label)
				}
			}
		})
	}
}

// TestShardedDispatchMultiTenant checks that DRR interleaving across lanes
// never leaks into per-tenant state: two lanes with unequal weights, fed
// concurrently through one fair dispatcher into 4-worker pools, each
// finish bit-identical to their own serial reference.
func TestShardedDispatchMultiTenant(t *testing.T) {
	batches := workload(30, 200)
	backend := backends(9)["sharded"]
	serial := query.NewEngine(testSchema(t))
	registerPropSuite(t, serial, backend)
	for _, ts := range batches {
		serial.ProcessBatch(ts)
	}
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	f := NewFair(64)
	engines := make([]*query.Engine, 2)
	pools := make([]*Pool, 2)
	lanes := make([]*Lane, 2)
	for i := range engines {
		engines[i] = query.NewEngine(testSchema(t))
		registerPropSuite(t, engines[i], backend)
		var err error
		pools[i], err = New(engines[i], Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		lanes[i] = f.AddLane(fmt.Sprintf("t%d", i), 1+2*i, 4, pools[i], nil)
	}
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, ts := range batches {
				if _, ok := lanes[i].Enqueue(pools[i].Plan(ts)); !ok {
					t.Error("lane refused an enqueue")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range lanes {
		f.RemoveLane(lanes[i])
	}
	f.Close()
	for i := range engines {
		pools[i].Fence()
		got, err := engines[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		pools[i].Close()
		if !bytes.Equal(got, want) {
			t.Errorf("lane %d: state diverged from serial", i)
		}
	}
}
