package core

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryField guards the hand-maintained field list in
// Stats.add: a counter added to Stats but not to add would be dropped at
// every shard barrier, and only sharded runs would notice. Every field
// of the source gets a distinct non-zero value; after adding it to a
// zero Stats the two must be equal.
func TestStatsAddCoversEveryField(t *testing.T) {
	var src, dst Stats
	v := reflect.ValueOf(&src).Elem()
	n := int64(0)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			n++
			f.SetInt(n)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				n++
				f.Index(j).SetInt(n)
			}
		default:
			t.Fatalf("Stats.%s has kind %s: teach Stats.add and this test how it merges",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	dst.add(&src)
	if dst != src {
		t.Fatalf("Stats.add dropped a field:\nsource: %+v\nmerged: %+v", src, dst)
	}
	dst.add(&src)
	if dst.PromoteInserted != 2*src.PromoteInserted || dst.HitsByLayer[0] != 2*src.HitsByLayer[0] {
		t.Fatalf("Stats.add does not accumulate: %+v", dst)
	}
}
