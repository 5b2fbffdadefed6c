//! Algebraic kernels and factoring support.
//!
//! Kernels (cube-free primary divisors) are the classic currency of
//! multi-level logic optimisation: extracting a good kernel as a new
//! intermediate signal shares logic between expressions. The pre-POWDER
//! synthesis flow uses [`kernels`] and [`best_factor`] to factor minimised
//! SOPs before decomposition and mapping.

use crate::{Cube, Sop};

/// A kernel/co-kernel pair of an SOP: `expr = co_kernel · kernel + rest`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelPair {
    /// The cube that divides the expression to yield the kernel.
    pub co_kernel: Cube,
    /// The cube-free quotient.
    pub kernel: Sop,
}

/// The largest cube dividing every cube of the SOP.
#[must_use]
pub fn common_cube(sop: &Sop) -> Cube {
    let mut iter = sop.cubes().iter();
    let first = match iter.next() {
        Some(c) => *c,
        None => return Cube::universe(),
    };
    iter.fold(first, |acc, c| acc.common(c))
}

/// Enumerates the kernels of `sop` (level-0 and higher), with their
/// co-kernels. The expression itself is included if it is cube-free and has
/// at least two cubes.
///
/// Uses the standard recursive kernel extraction over the literal set,
/// pruning revisited literals. Intended for the modest cube counts produced
/// by two-level minimisation of benchmark cones.
///
/// # Example
///
/// ```
/// use powder_logic::{Cube, Sop, kernel::kernels};
///
/// // f = a·c + a·d + b·c + b·d  has kernel (c + d) with co-kernels a and b,
/// // and kernel (a + b) with co-kernels c and d.
/// let f = Sop::from_cubes(4, vec![
///     Cube::new(0b0101, 0), Cube::new(0b1001, 0),
///     Cube::new(0b0110, 0), Cube::new(0b1010, 0),
/// ]);
/// let ks = kernels(&f);
/// assert!(ks.iter().any(|k| k.kernel.cube_count() == 2));
/// ```
#[must_use]
pub fn kernels(sop: &Sop) -> Vec<KernelPair> {
    let mut out = Vec::new();
    let support = sop.support_mask();
    let literals: Vec<(usize, bool)> = (0..64)
        .filter(|&v| (support >> v) & 1 == 1)
        .flat_map(|v| [(v, true), (v, false)])
        .collect();
    kernels_rec(sop, Cube::universe(), 0, &literals, &mut out);
    // The whole expression, if cube-free.
    if sop.cube_count() >= 2 && common_cube(sop).literal_count() == 0 {
        let pair = KernelPair {
            co_kernel: Cube::universe(),
            kernel: sop.clone(),
        };
        if !out.contains(&pair) {
            out.push(pair);
        }
    }
    out
}

fn kernels_rec(
    sop: &Sop,
    co_kernel: Cube,
    start: usize,
    literals: &[(usize, bool)],
    out: &mut Vec<KernelPair>,
) {
    for (idx, &(v, phase)) in literals.iter().enumerate().skip(start) {
        let lit_cube = Cube::universe().with_literal(v, phase);
        // Cubes containing this literal.
        let with_lit: Vec<Cube> = sop
            .cubes()
            .iter()
            .filter(|c| c.literal(v) == Some(phase))
            .copied()
            .collect();
        if with_lit.len() < 2 {
            continue;
        }
        let sub = Sop::from_cubes(sop.vars(), with_lit);
        let (quot, _) = sub.algebraic_divide(&Sop::from_cubes(sop.vars(), vec![lit_cube]));
        if quot.cube_count() < 2 {
            continue;
        }
        // Make cube-free: divide out the common cube.
        let cc = common_cube(&quot);
        let free: Sop = if cc.literal_count() > 0 {
            let (q, _) = quot.algebraic_divide(&Sop::from_cubes(sop.vars(), vec![cc]));
            q
        } else {
            quot
        };
        if free.cube_count() < 2 {
            continue;
        }
        let new_co = co_kernel
            .intersect(&lit_cube)
            .and_then(|c| c.intersect(&cc));
        let Some(new_co) = new_co else { continue };
        let pair = KernelPair {
            co_kernel: new_co,
            kernel: free.clone(),
        };
        if !out.contains(&pair) {
            out.push(pair);
        }
        kernels_rec(&free, new_co, idx + 1, literals, out);
    }
}

/// Value of factoring `kernel` out of `sop`: the literal-count saving if the
/// kernel were implemented once and substituted everywhere it divides.
#[must_use]
pub fn factoring_value(sop: &Sop, kernel: &Sop) -> i64 {
    let (quot, rest) = sop.algebraic_divide(kernel);
    if quot.is_empty() {
        return 0;
    }
    let before = i64::from(sop.literal_count());
    // after: quotient cubes each gain one literal (the new signal), plus the
    // kernel body implemented once, plus the remainder.
    let after = i64::from(quot.literal_count())
        + quot.cube_count() as i64
        + i64::from(kernel.literal_count())
        + i64::from(rest.literal_count());
    before - after
}

/// Picks the kernel of `sop` with the highest [`factoring_value`], if any
/// has positive value.
#[must_use]
pub fn best_factor(sop: &Sop) -> Option<KernelPair> {
    kernels(sop)
        .into_iter()
        .filter(|k| k.kernel.cube_count() >= 2)
        .map(|k| {
            let v = factoring_value(sop, &k.kernel);
            (k, v)
        })
        .filter(|&(_, v)| v > 0)
        .max_by_key(|&(_, v)| v)
        .map(|(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f_shared() -> Sop {
        // f = a·c + a·d + b·c + b·d + e
        Sop::from_cubes(
            5,
            vec![
                Cube::new(0b00101, 0),
                Cube::new(0b01001, 0),
                Cube::new(0b00110, 0),
                Cube::new(0b01010, 0),
                Cube::new(0b10000, 0),
            ],
        )
    }

    #[test]
    fn common_cube_of_single_product() {
        let f = Sop::from_cubes(3, vec![Cube::new(0b011, 0b100)]);
        assert_eq!(common_cube(&f), Cube::new(0b011, 0b100));
    }

    #[test]
    fn kernels_of_shared_expression() {
        let ks = kernels(&f_shared());
        // (c + d) and (a + b) must both appear as kernels.
        let cd = Sop::from_cubes(5, vec![Cube::new(0b00100, 0), Cube::new(0b01000, 0)]);
        let ab = Sop::from_cubes(5, vec![Cube::new(0b00001, 0), Cube::new(0b00010, 0)]);
        assert!(
            ks.iter().any(|k| k.kernel == cd),
            "missing kernel c+d: {ks:?}"
        );
        assert!(
            ks.iter().any(|k| k.kernel == ab),
            "missing kernel a+b: {ks:?}"
        );
    }

    #[test]
    fn best_factor_saves_literals() {
        let f = f_shared();
        let best = best_factor(&f).expect("shared expression must factor");
        assert!(factoring_value(&f, &best.kernel) > 0);
    }

    #[test]
    fn no_kernel_in_single_cube() {
        let f = Sop::from_cubes(3, vec![Cube::new(0b111, 0)]);
        assert!(best_factor(&f).is_none());
    }

    #[test]
    fn factoring_value_zero_when_no_division() {
        let f = Sop::from_cubes(3, vec![Cube::new(0b001, 0)]);
        let k = Sop::from_cubes(3, vec![Cube::new(0b010, 0), Cube::new(0b100, 0)]);
        assert_eq!(factoring_value(&f, &k), 0);
    }
}
