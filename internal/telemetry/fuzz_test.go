package telemetry

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the Stats RPC decoder. It
// must never panic, and any input it accepts must re-encode to exactly the
// same bytes — the layout has one encoding per snapshot, so an accepted
// input that re-encodes differently was misread.
func FuzzDecodeSnapshot(f *testing.F) {
	var s Set
	s.ConfigureWorkers(2)
	s.AddTuples(7)
	s.AddWorkerTask(1, 3)
	s.Observe(RPCQuery, 1500)
	full := s.Snapshot()
	full.Tenants = []TenantStats{{Name: "acme", Weight: 2, Tuples: 6, QueueHighWater: 1}, {Name: ""}}
	f.Add(Snapshot{}.Encode())
	f.Add(s.Snapshot().Encode())
	f.Add(full.Encode())
	trunc := full.Encode()
	f.Add(trunc[:len(trunc)-1])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("IMPT\x06"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sn, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if got := sn.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted snapshot re-encodes differently:\n got %x\nwant %x", got, data)
		}
	})
}
