package stream_test

import (
	"reflect"
	"testing"

	"implicate/internal/client"
	"implicate/internal/stream"
)

// FuzzDecodeBatch feeds arbitrary payloads and tuple bounds to the wire
// servers' one batch decoder. It must never panic, never return more than
// maxTuples tuples, and the arena path — into an arena still holding an
// earlier batch's capacity, as a recycled pipeline batch's is — must agree
// with the nil-arena path: equal tuples, or the same error.
func FuzzDecodeBatch(f *testing.F) {
	schema, err := stream.NewSchema("A", "B")
	if err != nil {
		f.Fatal(err)
	}
	other, err := stream.NewSchema("X", "B")
	if err != nil {
		f.Fatal(err)
	}
	wide, err := stream.NewSchema("A", "B", "C")
	if err != nil {
		f.Fatal(err)
	}
	enc := func(s *stream.Schema, ts ...stream.Tuple) []byte {
		data, err := client.EncodeBatch(s, ts)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	many := make([]stream.Tuple, 40)
	for i := range many {
		many[i] = stream.Tuple{string(rune('a' + i%26)), string(rune('A' + i%7))}
	}
	valid := enc(schema, many...)
	f.Add(enc(schema), uint16(16))
	f.Add(enc(schema, stream.Tuple{"s1", "d1"}), uint16(1))
	f.Add(enc(schema, stream.Tuple{"", ""}, stream.Tuple{"ü", "\x00"}), uint16(2))
	f.Add(valid, uint16(40))
	f.Add(valid, uint16(39))
	f.Add(valid[:len(valid)-1], uint16(40))
	f.Add(enc(other, stream.Tuple{"x", "y"}), uint16(8))
	f.Add(enc(wide, stream.Tuple{"a", "b", "c"}), uint16(8))
	f.Add([]byte("not a batch"), uint16(8))
	f.Add([]byte(nil), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, bound uint16) {
		maxTuples := int(bound)
		want, wantErr := stream.DecodeBatch(data, schema, nil, maxTuples)
		if wantErr == nil && len(want) > maxTuples {
			t.Fatalf("decoded %d tuples past the bound %d", len(want), maxTuples)
		}
		var ar stream.RecordArena
		if _, err := stream.DecodeBatch(valid, schema, &ar, len(many)); err != nil {
			t.Fatal(err)
		}
		got, gotErr := stream.DecodeBatch(data, schema, &ar, maxTuples)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("arena path error %v, nil-arena path error %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("arena path decoded %q, nil-arena path %q", got, want)
		}
	})
}
