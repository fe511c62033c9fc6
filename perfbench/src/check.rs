//! The output checker, written apart from the program.
//!
//! It sees a publication only as the program reports it (groups of row
//! ids, the payload kind, the reported star count and KL) and recounts
//! everything from the benchmark's own copy of the source rows. It calls
//! no function of the workspace: eligibility, stars and the Eq. (2)
//! KL-divergence are computed here from first principles.

use std::collections::HashMap;

/// The benchmark's own copy of a source table: QI codes row-major, SA
/// codes, and the size of each QI domain as the program's schema has it.
#[derive(Debug, Clone)]
pub struct Source {
    pub d: usize,
    pub qi: Vec<u16>,
    pub sa: Vec<u16>,
    pub domains: Vec<u32>,
}

impl Source {
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    pub fn row(&self, r: usize) -> &[u16] {
        &self.qi[r * self.d..(r + 1) * self.d]
    }

    /// The same rows with each QI domain taken as the set of values that
    /// occur in its column, as a schema inferred from CSV has it.
    pub fn with_observed_domains(mut self) -> Source {
        self.domains = (0..self.d)
            .map(|a| {
                let mut seen: Vec<u16> = (0..self.len()).map(|r| self.row(r)[a]).collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len() as u32
            })
            .collect();
        self
    }

    /// Number of distinct `(QI vector, SA)` points of the table.
    pub fn support_points(&self) -> usize {
        let mut keys: Vec<u128> = (0..self.len()).map(|r| self.point_key(r)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    fn point_key(&self, r: usize) -> u128 {
        pack(self.row(r).iter().copied().chain([self.sa[r]]))
    }
}

/// Packs up to eight 16-bit codes into one integer key.
fn pack(codes: impl Iterator<Item = u16>) -> u128 {
    codes.fold(1u128, |k, c| (k << 16) | c as u128)
}

/// How a publication's quasi-identifiers are published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Stars where a group is not uniform (TP, TP+, Hilbert).
    Suppressed,
    /// Anything else (boxes, anatomy, recoding): no stars.
    Other,
}

/// A publication as the program reports it.
#[derive(Debug, Clone)]
pub struct Reported {
    pub groups: Vec<Vec<u32>>,
    pub kind: Kind,
    pub stars: usize,
    pub kl: f64,
}

/// What the checker recomputed, for the quality metrics.
#[derive(Debug, Clone, Copy)]
pub struct Verified {
    pub stars: usize,
    pub kl: f64,
}

/// Relative tolerance on the recomputed KL-divergence.
pub const KL_TOLERANCE: f64 = 1e-9;

/// Checks one publication of `src` at diversity `l`.
pub fn check(src: &Source, publication: &Reported, l: u32) -> Result<Verified, String> {
    let n = src.len();
    let mut seen = vec![false; n];
    for (g, rows) in publication.groups.iter().enumerate() {
        if rows.is_empty() {
            return Err(format!("group {g} is empty"));
        }
        for &r in rows {
            let slot = seen
                .get_mut(r as usize)
                .ok_or_else(|| format!("group {g} names row {r}, beyond the {n} source rows"))?;
            if *slot {
                return Err(format!("row {r} is published twice"));
            }
            *slot = true;
        }
    }
    if let Some(r) = seen.iter().position(|&s| !s) {
        return Err(format!("row {r} is not published"));
    }

    for (g, rows) in publication.groups.iter().enumerate() {
        let mut counts: HashMap<u16, usize> = HashMap::new();
        for &r in rows {
            *counts.entry(src.sa[r as usize]).or_default() += 1;
        }
        let top = counts.values().copied().max().unwrap_or(0);
        if top * l as usize > rows.len() {
            return Err(format!(
                "group {g} is not {l}-eligible: {top} of its {} rows share one SA value",
                rows.len()
            ));
        }
    }

    let masks: Vec<Vec<bool>> = publication
        .groups
        .iter()
        .map(|rows| {
            let first = src.row(rows[0] as usize);
            (0..src.d)
                .map(|a| rows.iter().any(|&r| src.row(r as usize)[a] != first[a]))
                .collect()
        })
        .collect();
    let stars: usize = publication
        .groups
        .iter()
        .zip(&masks)
        .map(|(rows, mask)| rows.len() * mask.iter().filter(|&&s| s).count())
        .sum();

    match publication.kind {
        Kind::Suppressed => {
            if publication.stars != stars {
                return Err(format!(
                    "reported {} stars, the groups need {stars}",
                    publication.stars
                ));
            }
            let kl = suppressed_kl(src, &publication.groups, &masks);
            let scale = kl.abs().max(publication.kl.abs()).max(f64::MIN_POSITIVE);
            if !publication.kl.is_finite() || (publication.kl - kl).abs() > KL_TOLERANCE * scale {
                return Err(format!(
                    "reported KL {} differs from the recomputed {kl}",
                    publication.kl
                ));
            }
            Ok(Verified { stars, kl })
        }
        Kind::Other => {
            if publication.stars != 0 {
                return Err(format!(
                    "a publication without suppression reports {} stars",
                    publication.stars
                ));
            }
            if !publication.kl.is_finite() || publication.kl < 0.0 {
                return Err(format!(
                    "reported KL {} is not finite and >= 0",
                    publication.kl
                ));
            }
            Ok(Verified {
                stars: 0,
                kl: publication.kl,
            })
        }
    }
}

/// Eq. (2) for a suppression publication: `Σ_p f(p) ln(f(p)/f*(p))` over
/// the support of `f`, where a starred attribute of a group spreads
/// uniformly over its domain and every row keeps its own SA value.
fn suppressed_kl(src: &Source, groups: &[Vec<u32>], masks: &[Vec<bool>]) -> f64 {
    let n = src.len() as f64;
    // Mass that the groups of one star mask place on a point, keyed by
    // the point's retained values and SA.
    let mut by_mask: HashMap<Vec<bool>, HashMap<u128, f64>> = HashMap::new();
    for (rows, mask) in groups.iter().zip(masks) {
        let spread: f64 = mask
            .iter()
            .zip(&src.domains)
            .filter(|(&s, _)| s)
            .map(|(_, &size)| 1.0 / size as f64)
            .product();
        let cells = by_mask.entry(mask.clone()).or_default();
        for &r in rows {
            let r = r as usize;
            *cells
                .entry(retained_key(src.row(r), src.sa[r], mask))
                .or_default() += spread;
        }
    }
    let mut points: HashMap<u128, (usize, f64)> = HashMap::new();
    for r in 0..src.len() {
        points.entry(src.point_key(r)).or_insert((r, 0.0)).1 += 1.0;
    }
    let mut terms: Vec<f64> = points
        .values()
        .map(|&(r, count)| {
            let mass: f64 = by_mask
                .iter()
                .filter_map(|(mask, cells)| cells.get(&retained_key(src.row(r), src.sa[r], mask)))
                .sum();
            let f = count / n;
            f * (count / mass).ln()
        })
        .collect();
    terms.sort_by(|a, b| a.total_cmp(b));
    terms.iter().sum()
}

fn retained_key(qi: &[u16], sa: u16, mask: &[bool]) -> u128 {
    pack(
        qi.iter()
            .zip(mask)
            .map(|(&v, &starred)| if starred { u16::MAX } else { v })
            .chain([sa]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 of the paper in codes: (Age, Sex, Education) and Disease.
    fn hospital() -> Source {
        let rows: [[u16; 4]; 10] = [
            [0, 0, 0, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 2],
            [1, 0, 1, 3],
            [2, 1, 0, 0],
            [2, 1, 0, 1],
            [3, 1, 1, 2],
            [3, 1, 1, 3],
            [4, 1, 2, 0],
            [4, 1, 2, 2],
        ];
        Source {
            d: 3,
            qi: rows.iter().flat_map(|r| r[..3].to_vec()).collect(),
            sa: rows.iter().map(|r| r[3]).collect(),
            domains: vec![5, 2, 3],
        }
    }

    fn groups() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]
    }

    fn suppressed(groups: Vec<Vec<u32>>, stars: usize, kl: f64) -> Reported {
        Reported {
            groups,
            kind: Kind::Suppressed,
            stars,
            kl,
        }
    }

    /// The correct publication of the test groups, with the KL computed
    /// here by brute force over the whole QI space.
    fn good() -> Reported {
        let src = hospital();
        let groups = groups();
        let n = src.len() as f64;
        let mut kl = 0.0;
        let mut points: Vec<(Vec<u16>, u16)> = (0..src.len())
            .map(|r| (src.row(r).to_vec(), src.sa[r]))
            .collect();
        points.sort();
        points.dedup();
        for (qi, sa) in points {
            let f = (0..src.len())
                .filter(|&r| src.row(r) == qi && src.sa[r] == sa)
                .count() as f64
                / n;
            let mut fstar = 0.0;
            for g in &groups {
                let first = src.row(g[0] as usize);
                for &r in g {
                    if src.sa[r as usize] != sa {
                        continue;
                    }
                    let mut p = 1.0 / n;
                    for a in 0..3 {
                        let uniform = g.iter().all(|&x| src.row(x as usize)[a] == first[a]);
                        if !uniform {
                            p /= src.domains[a] as f64;
                        } else if first[a] != qi[a] {
                            p = 0.0;
                        }
                    }
                    fstar += p;
                }
            }
            kl += f * (f / fstar).ln();
        }
        // Stars: Age and Education in the first two groups, none in the third.
        suppressed(groups, 16, kl)
    }

    #[test]
    fn a_correct_publication_passes() {
        let verified = check(&hospital(), &good(), 2).expect("the publication is correct");
        assert_eq!(verified.stars, 16);
        assert!(verified.kl > 0.0);
    }

    #[test]
    fn a_dropped_row_is_caught() {
        let mut p = good();
        p.groups[2].pop();
        let err = check(&hospital(), &p, 1).unwrap_err();
        assert!(err.contains("row 9 is not published"), "{err}");
    }

    #[test]
    fn a_row_published_twice_is_caught() {
        let mut p = good();
        p.groups[2].push(0);
        let err = check(&hospital(), &p, 1).unwrap_err();
        assert!(err.contains("published twice"), "{err}");
    }

    #[test]
    fn an_ineligible_group_is_caught() {
        let mut p = good();
        // Rows 4 and 8 both carry SA value 0.
        p.groups = vec![vec![0, 1, 2, 3], vec![5, 6, 7, 9], vec![4, 8]];
        let err = check(&hospital(), &p, 2).unwrap_err();
        assert!(err.contains("group 2 is not 2-eligible"), "{err}");
    }

    #[test]
    fn a_wrong_star_count_is_caught() {
        let mut p = good();
        p.stars -= 1;
        let err = check(&hospital(), &p, 2).unwrap_err();
        assert!(err.contains("the groups need 16"), "{err}");
    }

    #[test]
    fn a_wrong_kl_is_caught() {
        let mut p = good();
        p.kl *= 1.0 + 1e-6;
        let err = check(&hospital(), &p, 2).unwrap_err();
        assert!(err.contains("differs from the recomputed"), "{err}");
    }

    #[test]
    fn other_payloads_need_zero_stars_and_a_finite_kl() {
        let mut p = good();
        p.kind = Kind::Other;
        p.stars = 0;
        assert!(check(&hospital(), &p, 2).is_ok());
        p.kl = -0.5;
        assert!(check(&hospital(), &p, 2).is_err());
        p.kl = f64::NAN;
        assert!(check(&hospital(), &p, 2).is_err());
        p.kl = 1.0;
        p.stars = 3;
        assert!(check(&hospital(), &p, 2).is_err());
    }

    #[test]
    fn observed_domains_count_the_values_present() {
        let src = hospital().with_observed_domains();
        assert_eq!(src.domains, vec![5, 2, 3]);
        assert_eq!(src.support_points(), 10);
    }
}
