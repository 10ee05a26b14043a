//! PlyTrace: rendering synthetic images from a pile of polygons.
//!
//! "PlyTrace is a floating-point intensive C-threads program for
//! rendering artificial images in which surfaces are approximated by
//! polygons. One of its phases is parallelized by using as a work pile
//! its queue of lists of polygons to be rendered."
//!
//! The scene (triangle list) is written once by thread 0 and thereafter
//! only read — replicated read-only on every processor. Workers take
//! batches of triangles from a work pile and rasterize into a shared
//! z-buffered frame buffer. The queue is sorted by screen position, so
//! a batch touches a narrow band of the frame buffer: most frame-buffer
//! pages are written by one thread at a time and *stay cached local*,
//! migrating occasionally — the move-limit policy's intended sweet
//! spot. Together with per-triangle transform/set-up work on a private
//! stack, nearly all references are local (the paper's alpha of 0.96,
//! beta 0.50).

use crate::app::App;
use crate::Scale;
use ace_machine::{Ns, Prot};
use ace_sim::Simulator;
use cthreads::{Barrier, WorkPile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Floating-point cost of the barycentric set-up per scanline.
const SCANLINE_COST: Ns = Ns(8_000);

/// Floating-point cost per covered pixel (interpolation).
const PIXEL_COST: Ns = Ns(6_000);

/// Floating-point cost of per-triangle transform/clip/lighting set-up.
const SETUP_COST: Ns = Ns(80_000);

/// Private-stack references spilled during per-triangle set-up (vertex
/// transform matrices, edge coefficients).
const SETUP_REFS: u64 = 60;

/// Triangles per object (one work item is one object's polygon list, the
/// paper's "queue of lists of polygons"); an object's triangles cluster
/// in one region of the screen, so the worker rendering it owns that
/// region's frame-buffer pages for the duration.
const TRIS_PER_OBJECT: usize = 10;

/// One triangle: screen-space vertices with depth and a color.
#[derive(Clone, Copy, Debug)]
struct Tri {
    v: [(f64, f64); 3],
    z: [f64; 3],
    color: u32,
}

/// The polygon renderer.
pub struct PlyTrace {
    /// Frame buffer is `size x size` pixels.
    size: usize,
    /// Number of objects (polygon lists) in the scene.
    objects: usize,
    /// RNG seed for scene generation.
    seed: u64,
}

impl PlyTrace {
    /// PlyTrace at the given scale.
    pub fn new(scale: Scale) -> PlyTrace {
        match scale {
            Scale::Test => PlyTrace { size: 32, objects: 4, seed: 7 },
            Scale::Bench => PlyTrace { size: 128, objects: 24, seed: 7 },
        }
    }

    /// Total triangles in the scene.
    fn tri_count(&self) -> usize {
        self.objects * TRIS_PER_OBJECT
    }

    /// Generates the deterministic scene: `objects` polygon lists of
    /// [`TRIS_PER_OBJECT`] triangles each, every object clustered around
    /// its own screen position (a surface approximated by polygons).
    fn scene(&self) -> Vec<Tri> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let s = self.size as f64;
        let mut tris = Vec::with_capacity(self.tri_count());
        for _ in 0..self.objects {
            // Object center and extent.
            let ox = rng.random_range(0.1 * s..0.9 * s);
            let oy = rng.random_range(0.1 * s..0.9 * s);
            let extent = rng.random_range(s / 16.0..s / 8.0);
            for _ in 0..TRIS_PER_OBJECT {
                let cx = ox + rng.random_range(-extent..extent);
                let cy = oy + rng.random_range(-extent..extent);
                let r = rng.random_range(1.5..extent / 2.0 + 2.0);
                let mut v = [(0.0, 0.0); 3];
                for vv in &mut v {
                    let ang = rng.random_range(0.0..std::f64::consts::TAU);
                    *vv = (cx + r * ang.cos(), cy + r * ang.sin());
                }
                let z = [
                    rng.random_range(0.1..0.9),
                    rng.random_range(0.1..0.9),
                    rng.random_range(0.1..0.9),
                ];
                tris.push(Tri { v, z, color: 0 });
            }
        }
        // Color i = triangle i (12-bit field; offset keeps 0 reserved).
        for (i, t) in tris.iter_mut().enumerate() {
            t.color = 0x100 + i as u32;
        }
        tris
    }

    /// Barycentric coordinates of pixel center (px+.5, py+.5) within
    /// `t`, or `None` if outside (identical arithmetic in simulation and
    /// verification).
    fn bary(t: &Tri, px: usize, py: usize) -> Option<(f64, f64, f64)> {
        let (x, y) = (px as f64 + 0.5, py as f64 + 0.5);
        let (x0, y0) = t.v[0];
        let (x1, y1) = t.v[1];
        let (x2, y2) = t.v[2];
        let den = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2);
        if den.abs() < 1e-12 {
            return None;
        }
        let l0 = ((y1 - y2) * (x - x2) + (x2 - x1) * (y - y2)) / den;
        let l1 = ((y2 - y0) * (x - x2) + (x0 - x2) * (y - y2)) / den;
        let l2 = 1.0 - l0 - l1;
        if l0 >= 0.0 && l1 >= 0.0 && l2 >= 0.0 {
            Some((l0, l1, l2))
        } else {
            None
        }
    }

    /// The frame-buffer word for `t` at the pixel: 20 bits of fixed-point
    /// depth (offset by one so that 0 means "empty") above 12 bits of
    /// color. Depth and color travel in one word so a depth-test update
    /// is a single (atomic) store; ordering compares depth first.
    fn fb_word(t: &Tri, l: (f64, f64, f64)) -> u32 {
        let z = t.z[0] * l.0 + t.z[1] * l.1 + t.z[2] * l.2;
        let zfix = ((z * 500_000.0) as u32 + 1) & 0xFFFFF;
        (zfix << 12) | (t.color & 0xFFF)
    }

    /// Bounding box of a triangle, clamped to a `size` x `size` frame.
    fn bbox(size: usize, t: &Tri) -> (usize, usize, usize, usize) {
        let xs = [t.v[0].0, t.v[1].0, t.v[2].0];
        let ys = [t.v[0].1, t.v[1].1, t.v[2].1];
        let fmin = |a: &[f64]| a.iter().cloned().fold(f64::INFINITY, f64::min);
        let fmax = |a: &[f64]| a.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let x0 = fmin(&xs).floor().max(0.0) as usize;
        let y0 = fmin(&ys).floor().max(0.0) as usize;
        let x1 = (fmax(&xs).ceil() as usize).min(size - 1);
        let y1 = (fmax(&ys).ceil() as usize).min(size - 1);
        (x0, y0, x1, y1)
    }

    /// Calls `f(p, word)` for every pixel `p` (row-major) that a triangle
    /// of `scene` covers, with the word that triangle stores there. It
    /// walks each triangle's [`PlyTrace::bbox`], as the rasterizer does:
    /// a covered pixel's centre lies inside the triangle, so at least half
    /// a pixel inside `floor(min)..=ceil(max)` on both axes.
    fn for_each_cover(size: usize, scene: &[Tri], mut f: impl FnMut(usize, u32)) {
        for t in scene {
            let (x0, y0, x1, y1) = Self::bbox(size, t);
            for py in y0..=y1 {
                for px in x0..=x1 {
                    if let Some(l) = Self::bary(t, px, py) {
                        f(py * size + px, Self::fb_word(t, l));
                    }
                }
            }
        }
    }

    /// Checks a snapshot of the frame buffer (`fb`, row-major): every
    /// pixel's packed word must belong to a triangle covering that pixel,
    /// and covered pixels must be non-empty. (Depth-test races can only
    /// select a non-minimal *covering* triangle, never corrupt values; the
    /// engine's determinism makes the selection reproducible.) Reports the
    /// first failing pixel in row-major order. Costs one [`PlyTrace::bary`]
    /// per pixel of each triangle's bounding box.
    fn check_frame(&self, scene: &[Tri], fb: &[u32]) -> Result<(), String> {
        let size = self.size;
        let mut covered = vec![false; fb.len()];
        let mut matched = vec![false; fb.len()];
        Self::for_each_cover(size, scene, |p, word| {
            covered[p] = true;
            matched[p] |= word == fb[p];
        });
        for (p, &got) in fb.iter().enumerate() {
            let (px, py) = (p % size, p / size);
            if !covered[p] {
                if got != 0 {
                    return Err(format!("pixel ({px},{py}) written but uncovered: {got:#x}"));
                }
            } else if got == 0 {
                return Err(format!("covered pixel ({px},{py}) never written"));
            } else if !matched[p] {
                return Err(format!(
                    "pixel ({px},{py}) holds {got:#x} matching no covering triangle"
                ));
            }
        }
        Ok(())
    }
}

impl App for PlyTrace {
    fn name(&self) -> &'static str {
        "PlyTrace"
    }

    fn run(&self, sim: &mut Simulator, workers: usize) -> Result<(), String> {
        let size = self.size;
        let scene = std::sync::Arc::new(self.scene());
        let ntris = scene.len();
        // Scene storage: 10 f64-slots per triangle (x,y,z per vertex,
        // color in the last slot).
        let scene_mem = sim.alloc((ntris * 10 * 8) as u64, Prot::READ_WRITE);
        // Frame buffer: one packed depth+color word per pixel.
        let fbuf = sim.alloc((size * size * 4) as u64, Prot::READ_WRITE);
        let ctl = sim.alloc(64, Prot::READ_WRITE);
        let bar = Barrier::new(ctl, workers as u32);
        // One work item per object (polygon list).
        let pile = WorkPile::new(ctl + 16, self.objects as u64);
        let nworkers = workers;
        for t in 0..workers {
            let scene = std::sync::Arc::clone(&scene);
            // Private stack for transform/set-up spills.
            let stack = sim.alloc(2048, Prot::READ_WRITE);
            sim.spawn(format!("plytrace-{t}"), move |ctx| {
                let tri_addr = |i: usize| scene_mem + (i as u64) * 80;
                let evens: Vec<u32> = (0..SETUP_REFS).step_by(2).map(|r| r as u32).collect();
                // Each thread loads a contiguous block of objects into
                // shared memory (contiguous, so a scene page has one
                // writer and stays cacheable).
                let per = scene.len().div_ceil(nworkers);
                for (i, tri) in scene.iter().enumerate() {
                    if i / per == t {
                        let a = tri_addr(i);
                        // The record's nine floats are contiguous: one run.
                        let rec: Vec<f64> = (0..3)
                            .flat_map(|v| [tri.v[v].0, tri.v[v].1, tri.z[v]])
                            .collect();
                        ctx.write_run_f64(a, 8, &rec);
                        ctx.write_u32(a + 72, tri.color);
                    }
                }
                bar.wait(ctx);
                // Rasterization: one work item is one object's polygon
                // list.
                while let Some(obj) = pile.take(ctx) {
                    let lo = (obj as usize) * TRIS_PER_OBJECT;
                    for i in lo..lo + TRIS_PER_OBJECT {
                        // Load the triangle record from (replicated)
                        // shared memory.
                        let a = tri_addr(i);
                        let mut tri =
                            Tri { v: [(0.0, 0.0); 3], z: [0.0; 3], color: 0 };
                        let rec = ctx.read_run_f64(a, 8, 9);
                        for v in 0..3 {
                            tri.v[v].0 = rec[3 * v];
                            tri.v[v].1 = rec[3 * v + 1];
                            tri.z[v] = rec[3 * v + 2];
                        }
                        tri.color = ctx.read_u32(a + 72);
                        // Per-triangle transform/clip/lighting set-up on
                        // the private stack: the even slots are written,
                        // the odd ones read back, each half one
                        // stride-two-words run.
                        ctx.compute(SETUP_COST);
                        ctx.write_run(stack, 8, &evens);
                        let _ = ctx.read_run(stack + 4, 8, SETUP_REFS as usize / 2);
                        let (x0, y0, x1, y1) = PlyTrace::bbox(size, &tri);
                        for py in y0..=y1 {
                            // Per-scanline set-up re-reads the vertex
                            // data (replicated, hence local), one
                            // two-float run per vertex.
                            for v in 0..3 {
                                let _ = ctx.read_run_f64(a + (v as u64) * 24, 8, 2);
                            }
                            ctx.compute(SCANLINE_COST);
                            for px in x0..=x1 {
                                if let Some(l) = PlyTrace::bary(&tri, px, py) {
                                    ctx.compute(PIXEL_COST);
                                    // Interpolator spills to the stack.
                                    ctx.write_u32(stack + ((px % 64) as u64) * 4, 0);
                                    let w = PlyTrace::fb_word(&tri, l);
                                    let pf = fbuf + ((py * size + px) as u64) * 4;
                                    let cur = ctx.read_u32(pf);
                                    if cur == 0 || w < cur {
                                        ctx.write_u32(pf, w);
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
        sim.run();
        let fb: Vec<u32> = sim.with_kernel(|k| {
            (0..size * size).map(|p| k.peek_u32(fbuf + (p as u64) * 4)).collect()
        });
        self.check_frame(&scene, &fb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::measure_once;
    use ace_sim::SimConfig;
    use numa_core::MoveLimitPolicy;

    #[test]
    fn scene_is_deterministic() {
        let a = PlyTrace::new(Scale::Test).scene();
        let b = PlyTrace::new(Scale::Test).scene();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.v, y.v);
            assert_eq!(x.color, y.color);
        }
    }

    /// The same check by every triangle at every pixel: the oracle for
    /// [`PlyTrace::check_frame`].
    fn check_frame_by_pixel(size: usize, scene: &[Tri], fb: &[u32]) -> Result<(), String> {
        for py in 0..size {
            for px in 0..size {
                let got = fb[py * size + px];
                let covering = covering_at(scene, px, py);
                if covering.is_empty() {
                    if got != 0 {
                        return Err(format!(
                            "pixel ({px},{py}) written but uncovered: {got:#x}"
                        ));
                    }
                } else {
                    if got == 0 {
                        return Err(format!("covered pixel ({px},{py}) never written"));
                    }
                    if !covering.contains(&got) {
                        return Err(format!(
                            "pixel ({px},{py}) holds {got:#x} matching no covering triangle"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The words of every triangle covering the pixel, in scene order.
    fn covering_at(scene: &[Tri], px: usize, py: usize) -> Vec<u32> {
        scene
            .iter()
            .filter_map(|t| PlyTrace::bary(t, px, py).map(|l| PlyTrace::fb_word(t, l)))
            .collect()
    }

    /// Requires the bounding-box walk to find, at every pixel, exactly the
    /// covering words the every-triangle scan finds, in scene order.
    fn assert_same_covers(size: usize, scene: &[Tri]) {
        let mut walked = vec![Vec::new(); size * size];
        PlyTrace::for_each_cover(size, scene, |p, word| walked[p].push(word));
        for py in 0..size {
            for px in 0..size {
                assert_eq!(
                    walked[py * size + px],
                    covering_at(scene, px, py),
                    "pixel ({px},{py}) of a {size}x{size} frame"
                );
            }
        }
    }

    /// The frame a sequential rasterizer leaves: the least word per pixel.
    fn render(size: usize, scene: &[Tri]) -> Vec<u32> {
        let mut fb = vec![0u32; size * size];
        PlyTrace::for_each_cover(size, scene, |p, word| {
            if fb[p] == 0 || word < fb[p] {
                fb[p] = word;
            }
        });
        fb
    }

    /// A scene of `n` triangles that straddle the frame's edges and
    /// corners, leave it entirely, shrink below a pixel, run their edges
    /// through pixel centres, or have no area at all.
    fn edge_scene(rng: &mut StdRng, size: usize, n: usize) -> Vec<Tri> {
        let s = size as f64;
        let half = |(x, y): (f64, f64)| ((2.0 * x).round() / 2.0, (2.0 * y).round() / 2.0);
        (0..n)
            .map(|i| {
                // Anchored on an edge, at a corner or outside, or anywhere.
                let edge = [0.0, s, rng.random_range(-s..2.0 * s)];
                let (ax, ay) = match rng.random_range(0..4u32) {
                    0 => (edge[rng.random_range(0..2usize)], rng.random_range(0.0..s)),
                    1 => (rng.random_range(0.0..s), edge[rng.random_range(0..2usize)]),
                    2 => (edge[rng.random_range(0..3usize)], edge[rng.random_range(0..3usize)]),
                    _ => (rng.random_range(0.0..s), rng.random_range(0.0..s)),
                };
                let r: f64 = [0.3, 2.0, s / 4.0, s][rng.random_range(0..4usize)];
                let mut pts = [(0.0, 0.0); 3];
                for p in &mut pts {
                    *p = (ax + rng.random_range(-r..r), ay + rng.random_range(-r..r));
                }
                let [a, b, c] = pts;
                let (ha, hb) = (half(a), half(b));
                let k = rng.random_range(-2.0..3.0);
                let v = match rng.random_range(0..7u32) {
                    0 => [a, a, b],
                    1 => [a, a, a],
                    2 => [a, b, (a.0 + k * (b.0 - a.0), a.1 + k * (b.1 - a.1))],
                    // Whole and half coordinates: edges along rows and
                    // columns of pixel centres, then flat along one.
                    3 => [ha, hb, (ha.0, hb.1)],
                    4 => [ha, (ha.0, hb.1), (ha.0, 2.0 * hb.1 - ha.1)],
                    5 => [ha, (hb.0, ha.1), (2.0 * hb.0 - ha.0, ha.1)],
                    _ => [a, b, c],
                };
                let mut depth = || rng.random_range(0.1..0.9);
                let z = [depth(), depth(), depth()];
                Tri { v, z, color: 0x100 + i as u32 }
            })
            .collect()
    }

    #[test]
    fn bbox_walk_covers_what_the_full_scan_covers() {
        for scale in [Scale::Test, Scale::Bench] {
            let app = PlyTrace::new(scale);
            let scene = app.scene();
            assert_same_covers(app.size, &scene);
            let fb = render(app.size, &scene);
            assert!(fb.iter().any(|&w| w != 0));
            assert_eq!(app.check_frame(&scene, &fb), Ok(()));
            assert_eq!(check_frame_by_pixel(app.size, &scene, &fb), Ok(()));
        }
    }

    #[test]
    fn bbox_walk_covers_what_the_full_scan_covers_on_edge_scenes() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..200 {
            let size = rng.random_range(1..25usize);
            let scene = edge_scene(&mut rng, size, 24);
            assert_same_covers(size, &scene);
            let app = PlyTrace { size, objects: 0, seed: 0 };
            let fb = render(size, &scene);
            assert_eq!(app.check_frame(&scene, &fb), Ok(()));
            // A word in every pixel, some of them foreign: both checks must
            // name the same pixel and the same fault.
            let noisy: Vec<u32> = fb
                .iter()
                .map(|&w| match rng.random_range(0..8u32) {
                    0 => 0,
                    1 => 0x1234,
                    _ => w,
                })
                .collect();
            assert_eq!(
                app.check_frame(&scene, &noisy),
                check_frame_by_pixel(size, &scene, &noisy)
            );
        }
    }

    #[test]
    fn check_frame_names_each_fault_as_the_full_scan_does() {
        let app = PlyTrace::new(Scale::Test);
        let scene = app.scene();
        let fb = render(app.size, &scene);
        let at = |p: usize| (p % app.size, p / app.size);
        let uncovered = (0..fb.len()).find(|&p| fb[p] == 0).unwrap();
        // Covered by two triangles or more, so the one a depth race could
        // leave differs from the least word.
        let shared = (0..fb.len())
            .find(|&p| covering_at(&scene, at(p).0, at(p).1).len() > 1)
            .unwrap();
        let ((ux, uy), (sx, sy)) = (at(uncovered), at(shared));
        let foreign = fb[shared] ^ 0x1000;
        let cases = [
            (uncovered, 0x1abc, format!("pixel ({ux},{uy}) written but uncovered: 0x1abc")),
            (shared, 0, format!("covered pixel ({sx},{sy}) never written")),
            (
                shared,
                foreign,
                format!("pixel ({sx},{sy}) holds {foreign:#x} matching no covering triangle"),
            ),
        ];
        for (p, word, want) in cases {
            let mut bad = fb.clone();
            bad[p] = word;
            assert_eq!(app.check_frame(&scene, &bad), Err(want.clone()));
            assert_eq!(check_frame_by_pixel(app.size, &scene, &bad), Err(want));
        }
        // Every covering triangle's word passes, not only the least one.
        for word in covering_at(&scene, sx, sy) {
            let mut raced = fb.clone();
            raced[shared] = word;
            assert_eq!(app.check_frame(&scene, &raced), Ok(()));
        }
    }

    #[test]
    fn renders_correctly_under_numa_policy() {
        let app = PlyTrace::new(Scale::Test);
        let r = measure_once(
            &app,
            SimConfig::small(3),
            Box::new(MoveLimitPolicy::default()),
            3,
        );
        // Scene reads and scanline reloads dominate: alpha high.
        assert!(
            r.alpha_measured() > 0.6,
            "alpha_measured = {}",
            r.alpha_measured()
        );
        assert!(r.numa.replications > 0, "scene must be replicated");
    }
}
