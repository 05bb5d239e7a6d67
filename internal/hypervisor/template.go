package hypervisor

import (
	"errors"
	"fmt"
	"sort"

	"uniserver/internal/dram"
	"uniserver/internal/vfr"
)

// Image is the frozen form of a Hypervisor that restores are stamped
// from: configuration, object inventory, memory placements (by domain
// index, so the image binds to whichever memory system it is stamped
// beside), guests, vCPU pinning, operating point, isolation state and
// resilience counters. Every map of the live hypervisor is held as a
// slice in sorted key order, so the image — and its encoding — is
// reproducible. The object inventory is shared by cap-limited
// reference: it is never written in place (relabeling installs a
// copy), so neither the source nor any stamp can change what the
// image holds.
//
// The exported fields are the image's wire form (gob); Validate
// checks a decoded image.
type Image struct {
	Cfg           Config
	Objects       []Object
	Profiles      []CategoryProfile // category name order
	Alloc         dram.AllocatorImage
	VMs           []VM     // name order
	Pins          []vmPins // VM name order
	Point         vfr.Point
	IsolatedCores []int            // ascending
	ErrorCounts   []componentCount // component name order
	Stats         Stats
	Panicked      bool
}

// vmPins is one VM's vCPU core assignment (one entry per vCPU).
type vmPins struct {
	VM    string
	Cores []int
}

// componentCount is one component's correctable-error count.
type componentCount struct {
	Component string
	Count     int
}

// Image freezes the hypervisor. The receiver must not be mutated
// concurrently; afterwards it may keep running.
func (h *Hypervisor) Image() Image {
	objs := h.objects.Objects
	img := Image{
		Cfg:           h.cfg,
		Objects:       objs[:len(objs):len(objs)],
		Alloc:         h.alloc.Image(),
		Point:         h.point,
		IsolatedCores: h.IsolatedCores(),
		Stats:         h.stats,
		Panicked:      h.panicked,
	}
	for _, p := range h.objects.profiles {
		img.Profiles = append(img.Profiles, p)
	}
	sort.Slice(img.Profiles, func(i, j int) bool { return img.Profiles[i].Category < img.Profiles[j].Category })
	for _, name := range h.VMNames() {
		img.VMs = append(img.VMs, *h.vms[name])
	}
	for vm, cores := range h.pins.byVM {
		img.Pins = append(img.Pins, vmPins{VM: vm, Cores: append([]int(nil), cores...)})
	}
	sort.Slice(img.Pins, func(i, j int) bool { return img.Pins[i].VM < img.Pins[j].VM })
	for comp, n := range h.errorCounts {
		img.ErrorCounts = append(img.ErrorCounts, componentCount{Component: comp, Count: n})
	}
	sort.Slice(img.ErrorCounts, func(i, j int) bool { return img.ErrorCounts[i].Component < img.ErrorCounts[j].Component })
	return img
}

// Validate checks a decoded image against the domain count of the
// memory system it will be stamped beside: the host shape New would
// accept, and every placement on an existing domain. It caps the shared
// object inventory.
func (img *Image) Validate(domains int) error {
	if img.Cfg.Cores <= 0 || img.Cfg.OversubscribeVCPU <= 0 {
		return errors.New("hypervisor: image config needs cores and a positive oversubscription")
	}
	if err := img.Alloc.Validate(domains); err != nil {
		return fmt.Errorf("hypervisor: image placements: %w", err)
	}
	// Stamps share the inventory; cap it as Image does, since gob may
	// decode a large one with spare capacity.
	img.Objects = img.Objects[:len(img.Objects):len(img.Objects)]
	return nil
}

// StampInto overwrites h with the image bound to mem, reusing h's
// allocator and map storage; a zero h is filled. Afterwards h's error
// handling and guest churn leave the image untouched. The caller owns
// h exclusively.
func (img *Image) StampInto(h *Hypervisor, mem *dram.MemorySystem) {
	h.cfg = img.Cfg
	h.mem = mem
	if h.objects == nil {
		h.objects = &ObjectMap{}
	}
	h.objects.Objects = img.Objects
	h.objects.profiles = resetMap(h.objects.profiles, len(img.Profiles))
	for _, p := range img.Profiles {
		h.objects.profiles[p.Category] = p
	}
	if h.alloc == nil {
		h.alloc = &dram.Allocator{}
	}
	img.Alloc.StampInto(h.alloc, mem)

	h.vms = resetMap(h.vms, len(img.VMs))
	for _, vm := range img.VMs {
		cp := vm
		h.vms[vm.Spec.Name] = &cp
	}

	if h.pins == nil {
		h.pins = &pinner{}
	}
	h.pins.oversub = img.Cfg.OversubscribeVCPU
	h.pins.load = resetMap(h.pins.load, len(img.Pins))
	h.pins.byVM = resetMap(h.pins.byVM, len(img.Pins))
	for _, p := range img.Pins {
		h.pins.byVM[p.VM] = append([]int(nil), p.Cores...)
		for _, c := range p.Cores {
			h.pins.load[c]++
		}
	}

	h.point = img.Point
	h.isolatedCores = resetMap(h.isolatedCores, len(img.IsolatedCores))
	for _, c := range img.IsolatedCores {
		h.isolatedCores[c] = true
	}
	h.errorCounts = resetMap(h.errorCounts, len(img.ErrorCounts))
	for _, ec := range img.ErrorCounts {
		h.errorCounts[ec.Component] = ec.Count
	}
	h.stats = img.Stats
	h.panicked = img.Panicked
}

// resetMap returns m emptied, or a new map sized for n when m is nil.
func resetMap[K comparable, V any](m map[K]V, n int) map[K]V {
	if m == nil {
		return make(map[K]V, n)
	}
	clear(m)
	return m
}
