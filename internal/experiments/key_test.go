package experiments

import (
	"crypto/sha256"
	"reflect"
	"testing"
)

// keyedTypes are the run descriptions Key covers, one row each, with how a
// value of the type reaches a key. A run description that gains a reader of
// its own key gets a row here.
var keyedTypes = []struct {
	typ reflect.Type
	key func(v any) [sha256.Size]byte
}{
	{reflect.TypeOf(Input{}), func(v any) [sha256.Size]byte { return Key("mesh", v.(Input)) }},
	{reflect.TypeOf(Scale{}), func(v any) [sha256.Size]byte { return Key("mesh", Input{Scale: v.(Scale)}) }},
}

// keyExclusions lists, with its reason, every exported field of a keyed type
// that must not reach the key. A row that names no field, or a field that
// reaches the key anyway, fails TestKeyCoversEveryField too.
var keyExclusions = map[string]string{
	"Input.Cell": "a hook: it watches a run's cells and changes nothing they compute",
}

// keyDefaults spells out every default resolve fills in.
var keyDefaults = Input{
	FaultRates:   DefaultFaultRates,
	QuantSize:    DefaultQuantSize,
	ScalingSizes: DefaultScalingSizes,
}

// TestKeyCoversEveryField: perturbing any exported field of a keyed type
// changes the key, unless keyExclusions lists the field. A field added to
// one of them fails here until it reaches the key or gets a row.
func TestKeyCoversEveryField(t *testing.T) {
	listed := map[string]bool{}
	for _, row := range keyedTypes {
		base := row.key(reflect.New(row.typ).Elem().Interface())
		for i := 0; i < row.typ.NumField(); i++ {
			f := row.typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := row.typ.Name() + "." + f.Name
			v := reflect.New(row.typ).Elem()
			if !perturb(v.Field(i)) {
				t.Errorf("%s: no perturbation for a %s; add one to perturb", name, f.Type)
				continue
			}
			moved := row.key(v.Interface()) != base
			reason, excluded := keyExclusions[name]
			listed[name] = excluded
			switch {
			case excluded && moved:
				t.Errorf("%s reaches the key, but keyExclusions leaves it out (%s)", name, reason)
			case !excluded && !moved:
				t.Errorf("%s does not reach the key: let it, or give it a keyExclusions row with its reason", name)
			}
		}
	}
	for name := range keyExclusions {
		if !listed[name] {
			t.Errorf("keyExclusions row %s names no field of a keyed type", name)
		}
	}
	in := Input{Scale: tinyScale()}
	if Key("fig4", in) == Key("fig5", in) {
		t.Error("the entry name does not reach the key")
	}
}

// perturb sets v, a zero value, to one that is neither zero nor any default,
// and reports whether it knows v's kind.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(5)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return perturb(v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() && !perturb(v.Field(i)) {
				return false
			}
		}
	case reflect.Func:
		// Never called: the key only sees whether the hook is set.
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
	default:
		return false
	}
	return true
}

// TestKeyResolvesDefaults: an Input that leaves every default out keys as
// one that spells each out, because both resolve to the same fields.
func TestKeyResolvesDefaults(t *testing.T) {
	zero, spelled := reflect.ValueOf(Input{}.resolve()), reflect.ValueOf(keyDefaults.resolve())
	for i := 0; i < zero.NumField(); i++ {
		if a, b := zero.Field(i).Interface(), spelled.Field(i).Interface(); !reflect.DeepEqual(a, b) {
			t.Errorf("Input.%s: zero resolves to %v, the spelled-out default to %v",
				zero.Type().Field(i).Name, a, b)
		}
	}
	if Key("faults", Input{}) != Key("faults", keyDefaults) {
		t.Error("a zero Input keys apart from one with every default spelled out")
	}
}
