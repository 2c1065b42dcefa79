//! `barnes-hut` — an n-body simulation with a real octree.
//!
//! The paper includes Barnes–Hut as a *control*: it allocates (tree
//! nodes every timestep) but is dominated by force computation, so every
//! allocator should scale near-linearly on it. This implementation
//! builds a genuine octree over the allocator under test each step
//! (nodes live in heap blocks obtained through [`Obj`]), then computes
//! Barnes–Hut forces in parallel with the θ-criterion.
//!
//! Body positions are regenerated deterministically per step (seeded
//! jitter) rather than integrated — the allocation behavior, which is
//! what the benchmark measures, is identical, and the runs stay exactly
//! reproducible.

use crate::{LiveMeter, Obj, WorkloadResult};
use hoard_mem::MtAllocator;
use hoard_sim::{work, Machine, Rng, VBarrier};
use std::sync::Mutex;

/// Parameters for [`run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Number of bodies.
    pub bodies: usize,
    /// Timesteps (tree rebuilt, used, and freed each step).
    pub steps: usize,
    /// Barnes–Hut opening angle θ.
    pub theta: f32,
    /// Compute units billed per node visited during force calculation.
    pub work_per_visit: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            bodies: 2_000,
            steps: 3,
            theta: 0.5,
            work_per_visit: 5,
            seed: 0xBA27,
        }
    }
}

/// One octree node, stored inside an allocator block.
#[repr(C)]
struct Node {
    cx: f32,
    cy: f32,
    cz: f32,
    half: f32,
    mass: f32,
    mx: f32,
    my: f32,
    mz: f32,
    children: [i32; 8],
    body: i32,
    count: u32,
}

const MAX_DEPTH: usize = 24;

struct Tree<'a> {
    nodes: Vec<Obj>,
    alloc: &'a dyn MtAllocator,
}

impl<'a> Tree<'a> {
    fn new(alloc: &'a dyn MtAllocator) -> Self {
        Tree {
            nodes: Vec::new(),
            alloc,
        }
    }

    fn node(&self, idx: i32) -> *mut Node {
        self.nodes[idx as usize].addr() as *mut Node
    }

    fn new_node(&mut self, meter: &LiveMeter, cx: f32, cy: f32, cz: f32, half: f32) -> i32 {
        let obj = Obj::alloc(self.alloc, meter, std::mem::size_of::<Node>());
        let idx = self.nodes.len() as i32;
        unsafe {
            (obj.addr() as *mut Node).write(Node {
                cx,
                cy,
                cz,
                half,
                mass: 0.0,
                mx: 0.0,
                my: 0.0,
                mz: 0.0,
                children: [-1; 8],
                body: -1,
                count: 0,
            });
        }
        self.nodes.push(obj);
        idx
    }

    /// Insert body `b` (index into `pos`) starting at the root.
    fn insert(&mut self, meter: &LiveMeter, pos: &[[f32; 3]], mass: &[f32], b: usize) {
        self.insert_at(meter, pos, mass, 0, b, 0);
    }

    /// Standard recursive insertion: add `b`'s mass to this node's
    /// aggregates, then place it — in the node itself if it is the first
    /// occupant, otherwise in the right octant child (pushing a
    /// previously-resident body down first).
    fn insert_at(
        &mut self,
        meter: &LiveMeter,
        pos: &[[f32; 3]],
        mass: &[f32],
        idx: i32,
        b: usize,
        depth: usize,
    ) {
        let (x, y, z) = (pos[b][0], pos[b][1], pos[b][2]);
        unsafe {
            let n = self.node(idx);
            (*n).mass += mass[b];
            (*n).mx += mass[b] * x;
            (*n).my += mass[b] * y;
            (*n).mz += mass[b] * z;
            (*n).count += 1;
            if (*n).count == 1 {
                (*n).body = b as i32;
                return;
            }
            if depth >= MAX_DEPTH {
                // Degenerate cluster: aggregate leaf (approximated as a
                // point mass in the force pass).
                (*n).body = -1;
                return;
            }
            if (*n).body >= 0 {
                // Leaf becoming internal: push the resident body down.
                // Its contribution to this node's aggregates stays.
                let old = (*n).body as usize;
                (*n).body = -1;
                let o_old = Self::octant(&*self.node(idx), pos[old][0], pos[old][1], pos[old][2]);
                let child = self.get_or_create_child(meter, idx, o_old);
                self.insert_at(meter, pos, mass, child, old, depth + 1);
            }
        }
        let o = unsafe { Self::octant(&*self.node(idx), x, y, z) };
        let child = self.get_or_create_child(meter, idx, o);
        self.insert_at(meter, pos, mass, child, b, depth + 1);
    }

    fn get_or_create_child(&mut self, meter: &LiveMeter, idx: i32, o: usize) -> i32 {
        let existing = unsafe { (*self.node(idx)).children[o] };
        if existing >= 0 {
            existing
        } else {
            self.child_for_octant(meter, idx, o)
        }
    }

    fn child_for_octant(&mut self, meter: &LiveMeter, idx: i32, o: usize) -> i32 {
        let (cx, cy, cz, half) = unsafe {
            let n = self.node(idx);
            ((*n).cx, (*n).cy, (*n).cz, (*n).half)
        };
        let h = half / 2.0;
        let nx = cx + if o & 1 != 0 { h } else { -h };
        let ny = cy + if o & 2 != 0 { h } else { -h };
        let nz = cz + if o & 4 != 0 { h } else { -h };
        let child = self.new_node(meter, nx, ny, nz, h);
        unsafe {
            (*self.node(idx)).children[o] = child;
        }
        child
    }

    fn octant(n: &Node, x: f32, y: f32, z: f32) -> usize {
        (usize::from(x >= n.cx)) | (usize::from(y >= n.cy) << 1) | (usize::from(z >= n.cz) << 2)
    }

    /// Approximate force on body `b`; returns the acceleration vector
    /// and the number of nodes visited.
    fn force(&self, pos: &[[f32; 3]], b: usize, theta: f32) -> ([f32; 3], u64) {
        let mut acc = [0.0f32; 3];
        let mut visited = 0u64;
        let mut stack = vec![0i32];
        let (x, y, z) = (pos[b][0], pos[b][1], pos[b][2]);
        while let Some(idx) = stack.pop() {
            visited += 1;
            let n = self.node(idx);
            unsafe {
                if (*n).count == 0 {
                    continue;
                }
                let inv_m = 1.0 / (*n).mass.max(1e-12);
                let (px, py, pz) = ((*n).mx * inv_m, (*n).my * inv_m, (*n).mz * inv_m);
                let (dx, dy, dz) = (px - x, py - y, pz - z);
                let d2 = dx * dx + dy * dy + dz * dz + 1e-6;
                let d = d2.sqrt();
                let is_self_leaf = (*n).count == 1 && (*n).body == b as i32;
                let opened = (*n).half * 2.0 / d >= theta
                    && (*n).count > 1
                    && (*n).children.iter().any(|&c| c >= 0);
                if opened {
                    for &c in &(*n).children {
                        if c >= 0 {
                            stack.push(c);
                        }
                    }
                } else if !is_self_leaf {
                    let f = (*n).mass / (d2 * d);
                    acc[0] += f * dx;
                    acc[1] += f * dy;
                    acc[2] += f * dz;
                }
            }
        }
        (acc, visited)
    }

    fn free_all(&mut self, meter: &LiveMeter) {
        for obj in self.nodes.drain(..) {
            obj.free(self.alloc, meter);
        }
    }
}

/// Run barnes-hut on `threads` virtual processors.
pub fn run(alloc: &dyn MtAllocator, threads: usize, params: &Params) -> WorkloadResult {
    hoard_sim::reset_cache();
    let meter = LiveMeter::new();
    let barrier = VBarrier::new(threads);
    let tree_slot: Mutex<Option<Tree<'_>>> = Mutex::new(None);
    let total_allocs = std::sync::atomic::AtomicU64::new(0);

    // Deterministic body set, shared read-only.
    let (pos0, mass): (Vec<[f32; 3]>, Vec<f32>) = {
        let mut rng = Rng::new(params.seed, 0);
        (0..params.bodies)
            .map(|_| {
                let r = |rng: &mut Rng| (rng.range(0, 2_000_000) as f32 / 1_000_000.0) - 1.0;
                ([r(&mut rng), r(&mut rng), r(&mut rng)], 1.0)
            })
            .unzip()
    };

    let report = Machine::new(threads).run(|proc| {
        let meter = &meter;
        let barrier = &barrier;
        let tree_slot = &tree_slot;
        let pos0 = &pos0;
        let mass = &mass;
        let total_allocs = &total_allocs;
        move || {
            let chunk = params.bodies.div_ceil(threads);
            let lo = proc * chunk;
            let hi = ((proc + 1) * chunk).min(params.bodies);
            for step in 0..params.steps {
                // Per-step deterministic jitter (read-only derivation).
                let pos: Vec<[f32; 3]> = pos0
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let j = ((i * 31 + step * 17) % 101) as f32 / 100_000.0;
                        [p[0] + j, p[1] - j, p[2] + j]
                    })
                    .collect();
                if proc == 0 {
                    // Build phase (serial, like the original's tree build).
                    let mut tree = Tree::new(alloc);
                    tree.new_node(meter, 0.0, 0.0, 0.0, 2.0);
                    for b in 0..params.bodies {
                        tree.insert(meter, &pos, mass, b);
                    }
                    total_allocs
                        .fetch_add(tree.nodes.len() as u64, std::sync::atomic::Ordering::Relaxed);
                    *tree_slot.lock().expect("tree slot") = Some(tree);
                }
                barrier.wait();
                // Force phase (parallel, read-only tree).
                {
                    let guard = tree_slot.lock().expect("tree slot");
                    let tree = guard.as_ref().expect("tree built");
                    let mut checksum = 0.0f32;
                    for b in lo..hi {
                        let (acc, visited) = tree.force(&pos, b, params.theta);
                        work(visited * params.work_per_visit);
                        checksum += acc[0] + acc[1] + acc[2];
                    }
                    assert!(checksum.is_finite(), "forces must be finite");
                }
                barrier.wait();
                if proc == 0 {
                    // Teardown phase: free every node.
                    let mut tree = tree_slot.lock().expect("tree slot").take().expect("tree");
                    tree.free_all(meter);
                }
                barrier.wait();
            }
        }
    });

    WorkloadResult {
        makespan: report.makespan(),
        ops: total_allocs.load(std::sync::atomic::Ordering::Relaxed),
        max_live_requested: meter.peak(),
        snapshot: alloc.stats(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_core::HoardAllocator;

    fn small() -> Params {
        Params {
            bodies: 300,
            steps: 2,
            ..Params::default()
        }
    }

    #[test]
    fn tree_accounts_every_body() {
        let h = HoardAllocator::new_default();
        let meter = LiveMeter::new();
        let mut rng = Rng::new(1, 0);
        let pos: Vec<[f32; 3]> = (0..200)
            .map(|_| {
                let mut r = || (rng.range(0, 2_000_000) as f32 / 1_000_000.0) - 1.0;
                [r(), r(), r()]
            })
            .collect();
        let mass = vec![1.0f32; 200];
        let mut tree = Tree::new(&h);
        tree.new_node(&meter, 0.0, 0.0, 0.0, 2.0);
        for b in 0..200 {
            tree.insert(&meter, &pos, &mass, b);
        }
        unsafe {
            let root = tree.node(0);
            assert_eq!((*root).count, 200, "root aggregates all bodies");
            assert!(((*root).mass - 200.0).abs() < 1e-3);
            // Center of mass is the mean position.
            let mean: [f32; 3] = {
                let mut m = [0.0f32; 3];
                for p in &pos {
                    for k in 0..3 {
                        m[k] += p[k] / 200.0;
                    }
                }
                m
            };
            assert!(((*root).mx / 200.0 - mean[0]).abs() < 1e-3);
        }
        tree.free_all(&meter);
        assert_eq!(h.stats().live_current, 0);
    }

    #[test]
    fn forces_match_direct_summation_roughly() {
        // θ→0 makes Barnes–Hut exact; compare against O(n²) for a small
        // set.
        let h = HoardAllocator::new_default();
        let meter = LiveMeter::new();
        let mut rng = Rng::new(2, 0);
        let pos: Vec<[f32; 3]> = (0..50)
            .map(|_| {
                let mut r = || (rng.range(0, 2_000_000) as f32 / 1_000_000.0) - 1.0;
                [r(), r(), r()]
            })
            .collect();
        let mass = vec![1.0f32; 50];
        let mut tree = Tree::new(&h);
        tree.new_node(&meter, 0.0, 0.0, 0.0, 2.0);
        for b in 0..50 {
            tree.insert(&meter, &pos, &mass, b);
        }
        for b in [0usize, 13, 49] {
            let (acc, _) = tree.force(&pos, b, 0.0);
            let mut direct = [0.0f32; 3];
            for (o, po) in pos.iter().enumerate() {
                if o == b {
                    continue;
                }
                let dx = po[0] - pos[b][0];
                let dy = po[1] - pos[b][1];
                let dz = po[2] - pos[b][2];
                let d2 = dx * dx + dy * dy + dz * dz + 1e-6;
                let d = d2.sqrt();
                direct[0] += dx / (d2 * d);
                direct[1] += dy / (d2 * d);
                direct[2] += dz / (d2 * d);
            }
            for k in 0..3 {
                let denom = direct[k].abs().max(1e-3);
                assert!(
                    (acc[k] - direct[k]).abs() / denom < 0.15,
                    "body {b} axis {k}: bh={} direct={}",
                    acc[k],
                    direct[k]
                );
            }
        }
        tree.free_all(&meter);
    }

    #[test]
    fn full_run_scales_for_any_allocator() {
        // The control property: compute dominates, so even the serial
        // allocator speeds up here.
        let p = small();
        let t1 = run(&hoard_baselines::SerialAllocator::new(), 1, &p).makespan;
        let t4 = run(&hoard_baselines::SerialAllocator::new(), 4, &p).makespan;
        let speedup = t1 as f64 / t4 as f64;
        assert!(
            speedup > 2.0,
            "barnes-hut must scale regardless of allocator: {speedup:.2}"
        );
    }

    #[test]
    fn no_leaks_after_full_run() {
        let h = HoardAllocator::new_default();
        let r = run(&h, 3, &small());
        assert_eq!(r.snapshot.live_current, 0);
        assert!(r.ops > 300, "nodes were allocated each step");
    }
}
