//! The event loop's memory is bounded by what is in flight, not by how
//! long it has run. A small leaf-spine scenario — CBR traffic on every
//! leaf, one tone per cell per window, scene GC on — is stepped window by
//! window through `UnifiedLoop::step` under a counting global allocator.
//! The live heap after window 2k may exceed the live heap after window k
//! by at most a small ε: anything kept per delivered packet, per event or
//! per emission would grow with the run and break the bound.
//!
//! The allocator counts every thread of this binary, so the file holds
//! one test.

use mdn_core::eventloop::Step;
use mdn_core::scenario::{ScenarioBuilder, ScenarioSpec};
use mdn_obs::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// `System`, plus a running total of the bytes it has handed out and not
/// yet taken back.
struct Counting;

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees carry over.
// The bookkeeping only adds and subtracts sizes; it never reads, writes
// or keeps the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Windows before the first reading; the second comes after `2 * K`.
const K: u64 = 30;

/// Allowed growth of the live heap from window `K` to window `2 * K`.
const EPSILON: isize = 64 * 1024;

/// Two cells over a leaf-spine of 2 spines and 8 leaves, each leaf's host
/// sending 200 packets/s to the host half the fabric away, with one leaf's
/// uplinks flapped early in the run.
const SPEC: &str = r#"{
  "name": "bounded_memory",
  "seed": 7,
  "windows": 60,
  "hall": { "cells": 2, "ambient": "office", "speaker": "ultrasound" },
  "selfheal": { "threads": 1, "config": { "verify_on_replan": false } },
  "emissions": { "pattern": "rotate" },
  "traffic": {
    "topology": "leaf_spine",
    "spines": 2,
    "leaves": 8,
    "pps": 200.0,
    "size": 1000,
    "latency_us": 5
  },
  "faults": [
    { "kind": "link_flap", "leaf": 3, "at_ms": 1500, "until_ms": 2400 }
  ]
}"#;

#[test]
fn live_heap_stops_growing_with_the_run() {
    let spec = ScenarioSpec::from_json(SPEC).expect("spec parses");
    assert_eq!(spec.windows, 2 * K);
    let registry = Registry::new();
    let built = ScenarioBuilder::new(&spec)
        .expect("spec plans")
        .build(&registry)
        .expect("scenario builds");
    let (mut lp, names) = (built.lp, built.names);
    let win = spec.window();
    let horizon = spec.total() + win;
    // One tone per cell per window, 50 ms in, rotating through the
    // cell's switches and slots.
    let schedule = |lp: &mut mdn_core::eventloop::UnifiedLoop, t: u64| {
        for (c, cell) in names.iter().enumerate() {
            let device = &cell[(t as usize + c) % cell.len()];
            let at = win * t as u32 + Duration::from_millis(50);
            lp.schedule_emission(
                at,
                device.as_str(),
                t as usize % 2,
                Duration::from_millis(100),
            );
        }
    };
    schedule(&mut lp, 0);

    let mut live = Vec::with_capacity(spec.windows as usize);
    while (live.len() as u64) < spec.windows {
        match lp.step(horizon) {
            Step::Window { report, .. } => drop(report),
            other => panic!("expected a window to close, got {other:?}"),
        }
        live.push(LIVE.load(Ordering::Relaxed));
        schedule(&mut lp, live.len() as u64);
    }

    let c = lp.net().counters;
    assert!(c.delivered > 20_000, "too little traffic: {c:?}");
    assert!(c.link_drops > 0, "the flap dropped nothing: {c:?}");
    assert!(lp.emissions_fired() >= 2 * spec.windows);
    assert!(lp.emissions_retired() > 0, "scene GC retired nothing");
    let (at_k, at_2k) = (live[K as usize - 1], live[2 * K as usize - 1]);
    assert!(
        at_2k - at_k <= EPSILON,
        "live heap grew {} B from window {K} ({at_k} B) to window {} ({at_2k} B); \
         per-window live heap: {live:?}",
        at_2k - at_k,
        2 * K,
    );
}
