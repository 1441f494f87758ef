package faultinject

import (
	"errors"
	"testing"
)

func TestDisarmedIsNil(t *testing.T) {
	Reset()
	if err := Check(EngineBuild); err != nil {
		t.Fatal(err)
	}
	if got := Armed(); len(got) != 0 {
		t.Fatalf("armed: %v", got)
	}
}

func TestEnableAndDisable(t *testing.T) {
	t.Cleanup(Reset)
	boom := errors.New("boom")
	Enable(Serialize, boom)
	if err := Check(Serialize); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	// Other points stay clean.
	if err := Check(EngineBuild); err != nil {
		t.Fatal(err)
	}
	if Hits(Serialize) != 1 {
		t.Fatalf("hits = %d", Hits(Serialize))
	}
	Disable(Serialize)
	if err := Check(Serialize); err != nil {
		t.Fatal(err)
	}
}

func TestEnableAfterCountsPasses(t *testing.T) {
	t.Cleanup(Reset)
	EnableAfter(ClosureExpand, nil, 2)
	for i := 0; i < 2; i++ {
		if err := Check(ClosureExpand); err != nil {
			t.Fatalf("pass %d should succeed: %v", i, err)
		}
	}
	if err := Check(ClosureExpand); err == nil {
		t.Fatal("third pass should fail")
	}
	if err := Check(ClosureExpand); err == nil {
		t.Fatal("faults persist once due")
	}
	if Hits(ClosureExpand) != 2 {
		t.Fatalf("hits = %d", Hits(ClosureExpand))
	}
}

func TestEnablePanic(t *testing.T) {
	t.Cleanup(Reset)
	EnablePanic(Serialize, "kaboom")
	defer func() {
		if r := recover(); r != "kaboom" {
			t.Fatalf("recovered %v", r)
		}
	}()
	Check(Serialize)
	t.Fatal("Check should have panicked")
}

func TestResetClearsEverything(t *testing.T) {
	Enable(EngineBuild, nil)
	EnablePanic(Serialize, nil)
	Reset()
	if got := Armed(); len(got) != 0 {
		t.Fatalf("armed after Reset: %v", got)
	}
	if err := Check(EngineBuild); err != nil {
		t.Fatal(err)
	}
}
