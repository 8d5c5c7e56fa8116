package model

import (
	"fmt"
	"sort"
	"sync"
)

// Registry assigns wire IDs to classes and resolves them during
// deserialization. Both sides of an RMI connection must register the
// same classes in the same order (the paper's compiler guarantees this
// by construction; our runtime checks names on lookup).
type Registry struct {
	mu sync.RWMutex
	// byID is indexed by class ID (slot 0 is never assigned) and only
	// ever appended to: a slot, once written, never changes, so a slice
	// header read under the lock stays a valid table after it is
	// released (see Classes).
	byID   []*Class
	byName map[string]*Class
}

// NewRegistry returns an empty registry with the built-in array classes
// for double[], int[] and byte[] pre-registered.
func NewRegistry() *Registry {
	r := &Registry{
		byID:   make([]*Class, 1, 16), // no class has ID 0
		byName: make(map[string]*Class),
	}
	r.mustDefine(&Class{Name: "double[]", Kind: KDoubleArray})
	r.mustDefine(&Class{Name: "int[]", Kind: KIntArray})
	r.mustDefine(&Class{Name: "byte[]", Kind: KByteArray})
	return r
}

func (r *Registry) mustDefine(c *Class) *Class {
	c2, err := r.add(c)
	if err != nil {
		panic(err)
	}
	return c2
}

func (r *Registry) add(c *Class) (*Class, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[c.Name]; ok {
		return nil, fmt.Errorf("model: class %q already registered", c.Name)
	}
	c.ID = int32(len(r.byID))
	r.byID = append(r.byID, c)
	r.byName[c.Name] = c
	return c, nil
}

// Define registers a new object class.
func (r *Registry) Define(name string, super *Class, fields ...Field) (*Class, error) {
	return r.add(&Class{Name: name, Kind: KObject, Super: super, Fields: fields})
}

// MustDefine is Define but panics on duplicate registration; intended
// for program start-up.
func (r *Registry) MustDefine(name string, super *Class, fields ...Field) *Class {
	c, err := r.Define(name, super, fields...)
	if err != nil {
		panic(err)
	}
	return c
}

// DoubleArray returns the built-in double[] class.
func (r *Registry) DoubleArray() *Class { return r.MustByName("double[]") }

// IntArray returns the built-in int[] class.
func (r *Registry) IntArray() *Class { return r.MustByName("int[]") }

// ArrayOf returns (registering on first use) the reference-array class
// whose elements are elem, e.g. ArrayOf(double[]) is double[][].
func (r *Registry) ArrayOf(elem *Class) *Class {
	name := elem.Name + "[]"
	r.mu.RLock()
	c, ok := r.byName[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	c, err := r.add(&Class{Name: name, Kind: KRefArray, Elem: elem})
	if err != nil {
		// Lost a race: someone else registered it between the RLock
		// and the add; fetch theirs.
		return r.MustByName(name)
	}
	return c
}

// Classes returns the ID-indexed class table as it stands: entry i is
// the class with ID i, entry 0 is nil. The table is a snapshot that
// needs no lock to read — classes defined later are not in it — so a
// decoder takes it once per message and resolves every class ID of the
// message with a bounds check (ClassByID).
func (r *Registry) Classes() []*Class {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byID[:len(r.byID):len(r.byID)]
}

// ClassByID resolves id in a table returned by Classes.
func ClassByID(table []*Class, id int32) (*Class, bool) {
	if id <= 0 || int64(id) >= int64(len(table)) {
		return nil, false
	}
	return table[id], true
}

// ByName resolves a class name.
func (r *Registry) ByName(name string) (*Class, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byName[name]
	return c, ok
}

// MustByName resolves a class name and panics if it is unknown.
func (r *Registry) MustByName(name string) *Class {
	c, ok := r.ByName(name)
	if !ok {
		panic("model: unknown class " + name)
	}
	return c
}

// Names returns all registered class names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
