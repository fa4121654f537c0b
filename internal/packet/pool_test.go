package packet

import (
	"reflect"
	"testing"
	"unsafe"
)

// eachLeaf calls fn on every scalar of v, descending into nested structs
// (the mappings). The values are made settable through their addresses, so
// the unexported pool mark is a leaf like any other: a field added to
// Packet later is covered without touching these tests.
func eachLeaf(v reflect.Value, fn func(name string, leaf reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f := reflect.NewAt(v.Field(i).Type(), unsafe.Pointer(v.Field(i).UnsafeAddr())).Elem()
		if f.Kind() == reflect.Struct {
			eachLeaf(f, func(name string, leaf reflect.Value) { fn(v.Type().Field(i).Name+"."+name, leaf) })
			continue
		}
		fn(v.Type().Field(i).Name, f)
	}
}

// TestPoolGetIsBlankWhateverThePacketWas: a recycled packet is
// indistinguishable from a fresh one, so nothing leaks from one packet's
// life into the next — including through a field this test has never
// heard of.
func TestPoolGetIsBlankWhateverThePacketWas(t *testing.T) {
	pl := &Pool{}
	fresh := *pl.Get()
	if want := (Packet{HitSwitch: NoSwitch, pooled: true}); fresh != want {
		t.Fatalf("a fresh Get is %+v, want %+v", fresh, want)
	}
	p := pl.Get()
	eachLeaf(reflect.ValueOf(p).Elem(), func(name string, leaf reflect.Value) {
		switch leaf.Kind() {
		case reflect.Bool:
			leaf.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			leaf.SetInt(0x55)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			leaf.SetUint(0x55)
		default:
			t.Fatalf("Packet.%s is a %s: packets hold no references, and this test cannot fill one", name, leaf.Kind())
		}
		if leaf.IsZero() {
			t.Fatalf("Packet.%s was not filled", name)
		}
	})
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatal("Get after Put allocated instead of reusing the packet")
	}
	if *q != fresh {
		t.Fatalf("a recycled packet reads %+v, a fresh one %+v", *q, fresh)
	}
}

// TestPoolPutTakesOnlyItsOwnPacketsOnce: everything but the first Put of a
// packet that Get handed out is a no-op.
func TestPoolPutTakesOnlyItsOwnPacketsOnce(t *testing.T) {
	pl := &Pool{}
	p := pl.Get()
	pl.Put(p)
	pl.Put(p)
	if len(pl.free) != 1 {
		t.Fatalf("a double Put left %d packets on the free list, want 1", len(pl.free))
	}
	held := pl.Get()
	for name, foreign := range map[string]*Packet{
		"NewData":         NewData(1, 0, 100, 1, 2, 3),
		"NewAck":          NewAck(1, 0, 1, 2, 3),
		"NewLearning":     NewLearning(held.Carried, 1, 2),
		"NewInvalidation": NewInvalidation(1, 2, 3, 4),
		"Clone":           held.Clone(),
		"nil pool's Get":  (*Pool)(nil).Get(),
	} {
		pl.Put(foreign)
		if len(pl.free) != 0 {
			t.Fatalf("Put took a %s packet, which its maker still owns", name)
		}
	}
	(*Pool)(nil).Put(held)
	if !held.pooled {
		t.Fatal("the nil pool's Put took a packet")
	}
	pl.Put(held)
	pl.Empty()
	if pl.free != nil {
		t.Fatal("Empty kept the free list")
	}
	if pl.Get() == held {
		t.Fatal("Get after Empty reused a packet")
	}
}

// TestPoolQuarantine: a quarantined packet reads as the poison value in
// every field — one added later has to be poisoned too — and is never
// handed out again.
func TestPoolQuarantine(t *testing.T) {
	pl := &Pool{}
	pl.Put(pl.Get())
	pl.Quarantine()
	p := pl.NewData(1, 0, 100, 1, 2, 3)
	pl.Put(p)
	pl.Put(p)
	if *p != poison {
		t.Fatalf("a quarantined packet reads %+v, want the poison value", *p)
	}
	if q := pl.Get(); q == p || len(pl.free) != 0 {
		t.Fatal("a quarantined pool reused a packet")
	}
	eachLeaf(reflect.ValueOf(&poison).Elem(), func(name string, leaf reflect.Value) {
		if leaf.IsZero() && name != "pooled" {
			t.Errorf("poison.%s is zero: a reader of a released packet would see a plausible value", name)
		}
	})
}
