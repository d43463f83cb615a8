//! Ground truth computed outside the program under test.
//!
//! The distance functions here are the benchmark's own: they re-derive
//! the metric from the raw objects instead of calling the `metric`
//! crate, so a fault in the program's metric or in the index shows as a
//! mismatch. Brute force scans every object for every distinct query.

/// Euclidean distance over `f32` coordinates, accumulated in `f64`.
pub fn l2_f32(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Euclidean distance over `f64` coordinates.
pub fn l2_f64(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Levenshtein distance: the fewest single-byte substitutions,
/// insertions and deletions turning `a` into `b`.
pub fn levenshtein(a: &[u8], b: &[u8]) -> f64 {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()] as f64
}

/// Brute-force answer for one query.
#[derive(Clone, Debug)]
pub struct Truth {
    /// The `k` nearest objects, ascending by distance (ties by id).
    pub top: Vec<(u32, f64)>,
    /// The query radius.
    pub radius: f64,
    /// Objects within the query radius.
    pub within: usize,
}

/// Scan `n` objects (`dist(i)` is the distance to object `i`) for the
/// `k` nearest, choose the radius from them, and count the objects
/// within it.
pub fn brute_force(
    n: usize,
    k: usize,
    radius: impl Fn(&[(u32, f64)]) -> f64,
    dist: impl Fn(usize) -> f64,
) -> Truth {
    let mut all: Vec<(u32, f64)> = (0..n).map(|i| (i as u32, dist(i))).collect();
    let cmp = |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    let k = k.min(all.len());
    if k > 0 && k < all.len() {
        all.select_nth_unstable_by(k - 1, cmp);
    }
    let mut top = all[..k].to_vec();
    top.sort_by(cmp);
    let radius = radius(&top);
    let within = all.iter().filter(|&&(_, d)| d <= radius).count();
    Truth {
        top,
        radius,
        within,
    }
}

/// Map `f` over `items` on every core, keeping order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = crate::measure::nproc().min(items.len()).max(1);
    let chunk = items.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("ground-truth worker panicked"))
            .collect()
    })
}

/// Are two distances equal up to rounding?
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// Check a range answer against brute force: exactly the `k` nearest
/// objects, in order, each reported distance equal to the one recomputed
/// here. Objects at tied distances may stand in for one another.
pub fn check_top_k(
    got: &[(u32, f64)],
    truth: &Truth,
    recompute: impl Fn(u32) -> f64,
    tol: f64,
) -> Result<(), String> {
    if got.len() != truth.top.len() {
        return Err(format!(
            "{} results, brute force has {}",
            got.len(),
            truth.top.len()
        ));
    }
    for (i, (&(id, d), &(tid, td))) in got.iter().zip(&truth.top).enumerate() {
        let real = recompute(id);
        if !close(d, real, tol) {
            return Err(format!(
                "result {i}: object {id} reported at {d}, recomputed {real}"
            ));
        }
        if id != tid && !close(real, td, tol) {
            return Err(format!(
                "result {i}: object {id} at {real}, brute force has object {tid} at {td}"
            ));
        }
        if got[..i].iter().any(|&(o, _)| o == id) {
            return Err(format!("object {id} returned twice"));
        }
    }
    Ok(())
}

/// Check that a query centred on object `obj` returned it, and that
/// every reported distance is the recomputed one, in ascending order.
pub fn check_contains(
    got: &[(u32, f64)],
    obj: u32,
    recompute: impl Fn(u32) -> f64,
    tol: f64,
) -> Result<(), String> {
    if !got.iter().any(|&(o, _)| o == obj) {
        return Err(format!(
            "object {obj} missing from a query centred on it ({} results)",
            got.len()
        ));
    }
    for (i, &(id, d)) in got.iter().enumerate() {
        let real = recompute(id);
        if !close(d, real, tol) {
            return Err(format!(
                "result {i}: object {id} reported at {d}, recomputed {real}"
            ));
        }
        if i > 0 && got[i - 1].1 > d {
            return Err(format!("results out of order at position {i}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_orders_and_counts() {
        let pts = [5.0, 1.0, 3.0, 2.0, 4.0];
        let t = brute_force(pts.len(), 3, |top| top[2].1 + 1.0, |i| pts[i]);
        assert_eq!(t.top, vec![(1, 1.0), (3, 2.0), (2, 3.0)]);
        assert_eq!(t.radius, 4.0);
        assert_eq!(t.within, 4);
    }

    #[test]
    fn top_k_check_accepts_ties_and_rejects_misses() {
        let t = Truth {
            top: vec![(1, 1.0), (2, 2.0)],
            radius: 2.0,
            within: 2,
        };
        let d = |id: u32| match id {
            1 => 1.0,
            2 | 3 => 2.0,
            _ => 9.0,
        };
        assert!(check_top_k(&[(1, 1.0), (2, 2.0)], &t, d, 1e-9).is_ok());
        assert!(check_top_k(&[(1, 1.0), (3, 2.0)], &t, d, 1e-9).is_ok());
        assert!(check_top_k(&[(1, 1.0), (4, 2.0)], &t, d, 1e-9).is_err());
        assert!(check_top_k(&[(1, 1.0)], &t, d, 1e-9).is_err());
        assert!(check_top_k(&[(2, 2.0), (1, 1.0)], &t, d, 1e-9).is_err());
    }

    #[test]
    fn own_levenshtein_matches_hand_counts() {
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3.0);
        assert_eq!(levenshtein(b"", b"abc"), 3.0);
        assert_eq!(levenshtein(b"ACGT", b"ACGT"), 0.0);
    }
}
