//! Seeded inputs: tables from the repository's ACS-like generator, their
//! CSV bytes, the benchmark's own copy of their rows, and a small RNG
//! for drawing request plans.

use crate::check::Source;
use ldiversity::datagen::{occ, sal, AcsConfig};
use ldiversity::microdata::{write_table_csv, Table};

/// The two §6 tables of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Census {
    Sal,
    Occ,
}

/// A generated table: the program's `Table`, its CSV bytes and the
/// benchmark's own copy of its rows.
pub struct Input {
    pub table: Table,
    pub csv: Vec<u8>,
    pub source: Source,
}

/// The first `d` QIs of a `rows`-row SAL or OCC table drawn with `seed`.
pub fn census(kind: Census, rows: usize, d: usize, seed: u64) -> Input {
    let config = AcsConfig { rows, seed };
    let full = match kind {
        Census::Sal => sal(&config),
        Census::Occ => occ(&config),
    };
    let qi: Vec<usize> = (0..d).collect();
    let table = full
        .project(&qi)
        .expect("d is at most the generator's 7 QIs");
    Input::of(table)
}

impl Input {
    pub fn of(table: Table) -> Input {
        let mut csv = Vec::new();
        write_table_csv(&mut csv, &table).expect("writing to memory cannot fail");
        let source = source_of(&table);
        Input { table, csv, source }
    }
}

/// Copies a table's rows out of the program's representation.
pub fn source_of(table: &Table) -> Source {
    let d = table.dimensionality();
    let mut qi = Vec::with_capacity(table.len() * d);
    let mut sa = Vec::with_capacity(table.len());
    for (_, row, v) in table.rows() {
        qi.extend_from_slice(row);
        sa.push(v);
    }
    Source {
        d,
        qi,
        sa,
        domains: (0..d)
            .map(|a| table.schema().qi_attribute(a).domain_size())
            .collect(),
    }
}

/// SplitMix64: a small, fully determined generator for request plans.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seed for one generated table, distinct per `(seed, stream, index)`.
pub fn table_seed(seed: u64, stream: u64, index: u64) -> u64 {
    Rng::new(seed, stream.wrapping_mul(1_000_003).wrapping_add(index)).next()
}
