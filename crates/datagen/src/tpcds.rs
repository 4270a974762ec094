//! Synthetic TPC-DS-like tables.
//!
//! The paper's §VII benchmarks sort two TPC-DS tables generated with
//! `dsdgen`: `catalog_sales` (the largest table) and `customer`. We cannot
//! ship `dsdgen` output, so these generators produce synthetic tables with
//! the same *sort-relevant* structure: the key columns' types, value
//! domains, duplicate structure (foreign keys over small dimension tables),
//! NULL presence, and — for `customer` — name strings with realistic
//! lengths and skew. Cardinalities follow Table IV.

use rowsort_testkit::Rng;
use rowsort_vector::{DataChunk, LogicalType, Value};

/// A generated table: a name, a named schema, and the data.
#[derive(Debug, Clone)]
pub struct NamedTable {
    /// Table name (`catalog_sales`, `customer`).
    pub name: String,
    /// Column names and types, in order.
    pub columns: Vec<(String, LogicalType)>,
    /// The rows.
    pub data: DataChunk,
}

impl NamedTable {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }
}

/// The two TPC-DS tables the paper benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpcdsTable {
    /// The largest fact table (§VII-C).
    CatalogSales,
    /// The customer dimension (§VII-D).
    Customer,
}

/// Table cardinality at a given scale factor (Table IV).
///
/// Anchor values are the TPC-DS specification row counts; other scale
/// factors interpolate linearly between anchors (adequate for sizing
/// scaled-down runs).
pub fn cardinality(table: TpcdsTable, sf: f64) -> u64 {
    let anchors: &[(f64, f64)] = match table {
        TpcdsTable::CatalogSales => &[
            (1.0, 1_441_548.0),
            (10.0, 14_401_261.0),
            (100.0, 143_997_065.0),
            (300.0, 432_006_150.0),
        ],
        TpcdsTable::Customer => &[
            (1.0, 100_000.0),
            (10.0, 500_000.0),
            (100.0, 2_000_000.0),
            (300.0, 5_000_000.0),
        ],
    };
    if sf <= anchors[0].0 {
        return (anchors[0].1 * sf / anchors[0].0).round() as u64;
    }
    for w in anchors.windows(2) {
        let ((s0, c0), (s1, c1)) = (w[0], w[1]);
        if sf <= s1 {
            let t = (sf - s0) / (s1 - s0);
            return (c0 + t * (c1 - c0)).round() as u64;
        }
    }
    let (s_last, c_last) = *anchors.last().unwrap();
    (c_last * sf / s_last).round() as u64
}

/// Dimension-table sizes at a scale factor (spec-approximate).
fn dimension_sizes(sf: f64) -> (i32, i32, i32) {
    // (warehouses, promotions, items)
    let lg = sf.max(1.0).log10();
    let warehouses = (5.0 + 5.0 * lg).round() as i32;
    let promotions = (300.0 + 400.0 * lg).round() as i32;
    let items = (18_000.0 + 100_000.0 * lg).round() as i32;
    (warehouses.max(1), promotions.max(1), items.max(1))
}

/// Fraction of NULLs in nullable TPC-DS columns (dsdgen uses a few percent).
const NULL_FRACTION: f64 = 0.03;

/// Generate `rows` rows of a `catalog_sales`-like table at scale factor
/// `sf` (which controls the foreign-key domains, i.e. the duplicate
/// structure of the sort keys).
///
/// Columns (the ones the paper's Figure 13 benchmark touches):
/// `cs_item_sk`, `cs_warehouse_sk`, `cs_ship_mode_sk`, `cs_promo_sk`,
/// `cs_quantity` — all INTEGER, the key columns nullable.
pub fn catalog_sales(rows: usize, sf: f64, seed: u64) -> NamedTable {
    let (warehouses, promotions, items) = dimension_sizes(sf);
    let mut rng = Rng::seed_from_u64(seed ^ 0x7c05_ca7a_1095_a1e5);
    let columns = vec![
        ("cs_item_sk".to_owned(), LogicalType::Int32),
        ("cs_warehouse_sk".to_owned(), LogicalType::Int32),
        ("cs_ship_mode_sk".to_owned(), LogicalType::Int32),
        ("cs_promo_sk".to_owned(), LogicalType::Int32),
        ("cs_quantity".to_owned(), LogicalType::Int32),
    ];
    let types: Vec<LogicalType> = columns.iter().map(|(_, t)| *t).collect();
    let mut data = DataChunk::new(&types);
    let mut row = Vec::with_capacity(columns.len());
    for _ in 0..rows {
        row.clear();
        row.push(Value::Int32(rng.range_inclusive(1, items)));
        for domain in [warehouses, 20, promotions] {
            if rng.chance(NULL_FRACTION) {
                row.push(Value::Null);
            } else {
                row.push(Value::Int32(rng.range_inclusive(1, domain)));
            }
        }
        if rng.chance(NULL_FRACTION) {
            row.push(Value::Null);
        } else {
            row.push(Value::Int32(rng.range_inclusive(1, 100)));
        }
        data.push_row(&row).expect("schema matches");
    }
    NamedTable {
        name: "catalog_sales".to_owned(),
        columns,
        data,
    }
}

/// First names, roughly dsdgen-flavoured (drawn with Zipf-ish skew).
const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "John",
    "Patricia",
    "Robert",
    "Jennifer",
    "Michael",
    "Linda",
    "William",
    "Elizabeth",
    "David",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Charles",
    "Karen",
    "Christopher",
    "Nancy",
    "Daniel",
    "Lisa",
    "Matthew",
    "Betty",
    "Anthony",
    "Margaret",
    "Mark",
    "Sandra",
    "Donald",
    "Ashley",
    "Steven",
    "Kimberly",
    "Paul",
    "Emily",
    "Andrew",
    "Donna",
    "Joshua",
    "Michelle",
    "Kenneth",
    "Dorothy",
    "Kevin",
    "Carol",
    "Brian",
    "Amanda",
    "George",
    "Melissa",
    "Edward",
    "Deborah",
    "Ronald",
    "Stephanie",
    "Timothy",
    "Rebecca",
    "Jason",
    "Sharon",
    "Jeffrey",
    "Laura",
    "Ryan",
    "Cynthia",
    "Jacob",
    "Kathleen",
    "Gary",
    "Amy",
    "Nicholas",
    "Angela",
    "Eric",
    "Shirley",
    "Jonathan",
    "Anna",
    "Stephen",
    "Brenda",
    "Larry",
    "Pamela",
    "Justin",
    "Emma",
    "Scott",
    "Nicole",
    "Brandon",
    "Helen",
    "Benjamin",
    "Samantha",
    "Samuel",
    "Katherine",
    "Gregory",
    "Christine",
    "Alexander",
    "Debra",
    "Frank",
    "Rachel",
    "Patrick",
    "Carolyn",
    "Raymond",
    "Janet",
    "Jack",
    "Catherine",
    "Dennis",
    "Maria",
    "Jerry",
    "Heather",
];

/// Last names, roughly dsdgen-flavoured.
const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
    "Hill",
    "Flores",
    "Green",
    "Adams",
    "Nelson",
    "Baker",
    "Hall",
    "Rivera",
    "Campbell",
    "Mitchell",
    "Carter",
    "Roberts",
    "Gomez",
    "Phillips",
    "Evans",
    "Turner",
    "Diaz",
    "Parker",
    "Cruz",
    "Edwards",
    "Collins",
    "Reyes",
    "Stewart",
    "Morris",
    "Morales",
    "Murphy",
    "Cook",
    "Rogers",
    "Gutierrez",
    "Ortiz",
    "Morgan",
    "Cooper",
    "Peterson",
    "Bailey",
    "Reed",
    "Kelly",
    "Howard",
    "Ramos",
    "Kim",
    "Cox",
    "Ward",
    "Richardson",
    "Watson",
    "Brooks",
    "Chavez",
    "Wood",
    "James",
    "Bennett",
    "Gray",
    "Mendoza",
    "Ruiz",
    "Hughes",
    "Price",
    "Alvarez",
    "Castillo",
    "Sanders",
    "Patel",
    "Myers",
    "Long",
    "Ross",
    "Foster",
    "Jimenez",
    "Powell",
    "Jenkins",
    "Perry",
    "Russell",
    "Sullivan",
    "Bell",
    "Coleman",
    "Butler",
    "Henderson",
    "Barnes",
    "Gonzales",
    "Fisher",
    "Vasquez",
    "Simmons",
    "Romero",
    "Jordan",
    "Patterson",
    "Alexander",
    "Hamilton",
    "Graham",
    "Reynolds",
    "Griffin",
    "Wallace",
    "Moreno",
    "West",
    "Cole",
    "Hayes",
    "Bryant",
    "Herrera",
    "Gibson",
    "Ellis",
    "Tran",
    "Medina",
    "Aguilar",
    "Stevens",
    "Murray",
    "Ford",
    "Castro",
    "Marshall",
    "Owens",
    "Harrison",
    "Fernandez",
    "McDonald",
    "Woods",
    "Washington",
    "Kennedy",
    "Wells",
    "Vargas",
    "Henry",
    "Chen",
    "Freeman",
    "Webb",
    "Tucker",
    "Guzman",
    "Burns",
    "Crawford",
    "Olson",
    "Simpson",
    "Porter",
    "Hunter",
    "Gordon",
    "Mendez",
    "Silva",
    "Shaw",
    "Snyder",
    "Mason",
    "Dixon",
    "Munoz",
    "Hunt",
    "Hicks",
    "Holmes",
    "Palmer",
    "Wagner",
    "Black",
    "Robertson",
    "Boyd",
    "Rose",
    "Stone",
    "Salazar",
    "Fox",
    "Warren",
    "Mills",
    "Meyer",
    "Rice",
    "Schmidt",
    "Garza",
    "Daniels",
    "Ferguson",
    "Nichols",
    "Stephens",
    "Soto",
    "Weaver",
    "Ryan",
    "Gardner",
    "Payne",
    "Grant",
    "Dunn",
    "Kelley",
    "Spencer",
    "Hawkins",
];

/// Skewed pick from a name list: low indices (common names) are favoured,
/// giving the duplicate-heavy prefix structure real name data has.
fn pick_name<'a, S: AsRef<str>>(rng: &mut Rng, names: &'a [S]) -> &'a str {
    let a = rng.range(0, names.len());
    let b = rng.range(0, names.len());
    names[a.min(b)].as_ref()
}

/// First names of [`customer_many_names`]: thousands, as TPC-DS's name
/// lists hold, where [`customer`]'s hold 101.
pub const MANY_FIRST_NAMES: usize = 3_000;

/// Last names of [`customer_many_names`] (201 in [`customer`]).
pub const MANY_LAST_NAMES: usize = 5_000;

/// Syllables the generated names are made of: two letters each, so a
/// name's syllables are read back one way only and the names differ.
const SYLLABLES: [&str; 40] = [
    "ba", "be", "bo", "ca", "da", "de", "di", "do", "fa", "ga", "ha", "he", "ja", "ka", "ke", "la",
    "le", "li", "lo", "ma", "me", "mi", "mo", "na", "ne", "no", "pa", "ra", "re", "ri", "ro", "sa",
    "se", "ta", "te", "to", "va", "ve", "wa", "za",
];

/// `count` distinct names of two to four syllables, capitalized, in an
/// order drawn from `seed` (so a skewed pick's common names are no
/// alphabetical run).
pub fn generated_names(count: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x0a3e_5000_0000_0001);
    let mut names: Vec<String> = (0..count)
        .map(|i| {
            // Name `i` spells `i` in base 40 with a two-syllable floor:
            // 1 600 names of two syllables, 64 000 of three, then four.
            let (mut n, mut name) = (i, String::new());
            let syllables = match i {
                0..1_600 => 2,
                1_600..65_600 => 3,
                _ => 4,
            };
            for _ in 0..syllables {
                name.push_str(SYLLABLES[n % SYLLABLES.len()]);
                n /= SYLLABLES.len();
            }
            if let Some(head) = name.get_mut(..1) {
                head.make_ascii_uppercase();
            }
            name
        })
        .collect();
    rng.shuffle(&mut names);
    names
}

/// Warehouse location nouns used to synthesize `w_warehouse_name`.
const WAREHOUSE_WORDS: &[&str] = &[
    "North", "South", "East", "West", "Central", "Harbor", "Valley", "Ridge", "Lake", "Summit",
    "Prairie", "Canyon", "Grove", "Mesa", "Delta", "Union",
];

/// Generate a `warehouse`-like dimension table at scale factor `sf`
/// (TPC-DS: 5–25 warehouses). Used as the join partner for
/// `catalog_sales.cs_warehouse_sk` in the sort-merge-join example.
pub fn warehouse(sf: f64, seed: u64) -> NamedTable {
    let (count, _, _) = dimension_sizes(sf);
    let mut rng = Rng::seed_from_u64(seed ^ 0x00aa_5e00_77a1_e000);
    let columns = vec![
        ("w_warehouse_sk".to_owned(), LogicalType::Int32),
        ("w_warehouse_name".to_owned(), LogicalType::Varchar),
        ("w_warehouse_sq_ft".to_owned(), LogicalType::Int32),
    ];
    let types: Vec<LogicalType> = columns.iter().map(|(_, t)| *t).collect();
    let mut data = DataChunk::new(&types);
    for sk in 1..=count {
        let a = WAREHOUSE_WORDS[rng.range(0, WAREHOUSE_WORDS.len())];
        let b = WAREHOUSE_WORDS[rng.range(0, WAREHOUSE_WORDS.len())];
        data.push_row(&[
            Value::Int32(sk),
            Value::from(format!("{a} {b} Warehouse")),
            Value::Int32(rng.range_inclusive(50_000, 1_000_000)),
        ])
        .expect("schema matches");
    }
    NamedTable {
        name: "warehouse".to_owned(),
        columns,
        data,
    }
}

/// Generate `rows` rows of a `customer`-like table.
///
/// Columns the paper's Figure 14 benchmark touches: `c_customer_sk`
/// (INTEGER, unique, NOT NULL), `c_birth_year`/`c_birth_month`/
/// `c_birth_day` (INTEGER, nullable), `c_first_name`/`c_last_name`
/// (VARCHAR, nullable).
pub fn customer(rows: usize, seed: u64) -> NamedTable {
    customer_named(rows, seed, FIRST_NAMES, LAST_NAMES)
}

/// [`customer`] with [`MANY_FIRST_NAMES`] first and [`MANY_LAST_NAMES`]
/// last names ([`generated_names`]), picked with the same skew: a key of
/// names at TPC-DS's cardinality rather than at 101 and 201.
pub fn customer_many_names(rows: usize, seed: u64) -> NamedTable {
    let first = generated_names(MANY_FIRST_NAMES, seed);
    let last = generated_names(MANY_LAST_NAMES, seed ^ 1);
    customer_named(rows, seed, &first, &last)
}

fn customer_named<S: AsRef<str>>(rows: usize, seed: u64, first: &[S], last: &[S]) -> NamedTable {
    let mut rng = Rng::seed_from_u64(seed ^ 0xc057_04e5_7a81_e000);
    let columns = vec![
        ("c_customer_sk".to_owned(), LogicalType::Int32),
        ("c_first_name".to_owned(), LogicalType::Varchar),
        ("c_last_name".to_owned(), LogicalType::Varchar),
        ("c_birth_year".to_owned(), LogicalType::Int32),
        ("c_birth_month".to_owned(), LogicalType::Int32),
        ("c_birth_day".to_owned(), LogicalType::Int32),
    ];
    let types: Vec<LogicalType> = columns.iter().map(|(_, t)| *t).collect();
    let mut data = DataChunk::new(&types);
    let mut row = Vec::with_capacity(columns.len());
    for sk in 0..rows {
        row.clear();
        row.push(Value::Int32(sk as i32 + 1));
        if rng.chance(NULL_FRACTION) {
            row.push(Value::Null);
        } else {
            row.push(Value::from(pick_name(&mut rng, first)));
        }
        if rng.chance(NULL_FRACTION) {
            row.push(Value::Null);
        } else {
            row.push(Value::from(pick_name(&mut rng, last)));
        }
        for (lo, hi) in [(1924, 1992), (1, 12), (1, 28)] {
            if rng.chance(NULL_FRACTION) {
                row.push(Value::Null);
            } else {
                row.push(Value::Int32(rng.range_inclusive(lo, hi)));
            }
        }
        data.push_row(&row).expect("schema matches");
    }
    NamedTable {
        name: "customer".to_owned(),
        columns,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_anchor_cardinalities() {
        assert_eq!(cardinality(TpcdsTable::CatalogSales, 10.0), 14_401_261);
        assert_eq!(cardinality(TpcdsTable::CatalogSales, 100.0), 143_997_065);
        assert_eq!(cardinality(TpcdsTable::Customer, 100.0), 2_000_000);
        assert_eq!(cardinality(TpcdsTable::Customer, 300.0), 5_000_000);
    }

    #[test]
    fn cardinality_scales_monotonically() {
        let mut prev = 0;
        for sf in [0.1, 1.0, 5.0, 10.0, 50.0, 100.0, 300.0, 1000.0] {
            let c = cardinality(TpcdsTable::CatalogSales, sf);
            assert!(c > prev, "sf {sf}");
            prev = c;
        }
    }

    #[test]
    fn catalog_sales_shape_and_domains() {
        let t = catalog_sales(5_000, 10.0, 1);
        assert_eq!(t.data.len(), 5_000);
        assert_eq!(t.column_index("cs_warehouse_sk"), Some(1));
        assert_eq!(t.column_index("cs_quantity"), Some(4));
        assert_eq!(t.column_index("nope"), None);
        let qty = t.data.column(4);
        let mut nulls = 0;
        for i in 0..qty.len() {
            match qty.get(i) {
                Value::Int32(q) => assert!((1..=100).contains(&q)),
                Value::Null => nulls += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(nulls > 0, "nullable column should contain NULLs");
        // ship mode domain is 20 values.
        let sm = t.data.column(2);
        for i in 0..sm.len() {
            if let Value::Int32(v) = sm.get(i) {
                assert!((1..=20).contains(&v));
            }
        }
    }

    #[test]
    fn scale_factor_changes_duplicate_structure() {
        use std::collections::HashSet;
        let small = catalog_sales(20_000, 1.0, 2);
        let large = catalog_sales(20_000, 300.0, 2);
        let distinct = |t: &NamedTable, col: usize| {
            let mut s = HashSet::new();
            for i in 0..t.data.len() {
                if let Value::Int32(v) = t.data.column(col).get(i) {
                    s.insert(v);
                }
            }
            s.len()
        };
        assert!(
            distinct(&large, 1) > distinct(&small, 1),
            "warehouses grow with SF"
        );
        assert!(
            distinct(&large, 3) > distinct(&small, 3),
            "promotions grow with SF"
        );
    }

    #[test]
    fn customer_shape_and_names() {
        let t = customer(5_000, 3);
        assert_eq!(t.data.len(), 5_000);
        let first = t.data.column(1);
        let mut lens = Vec::new();
        for i in 0..first.len() {
            if let Value::Varchar(s) = first.get(i) {
                lens.push(s.len());
                assert!(!s.is_empty());
            }
        }
        assert!(!lens.is_empty());
        let max = lens.iter().max().unwrap();
        assert!(*max <= 16, "names are short strings");
        // Birth year domain.
        let by = t.data.column(3);
        for i in 0..by.len() {
            if let Value::Int32(y) = by.get(i) {
                assert!((1924..=1992).contains(&y));
            }
        }
        // customer_sk unique and NOT NULL.
        let sk = t.data.column(0);
        assert!(sk.validity().all_valid());
    }

    #[test]
    fn generated_names_are_distinct_and_short() {
        use std::collections::HashSet;
        let names = generated_names(70_000, 5);
        let distinct: HashSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), 70_000);
        assert!(names.iter().all(|n| (4..=8).contains(&n.len())));
        assert_eq!(names, generated_names(70_000, 5), "a function of the seed");
        let t = customer_many_names(20_000, 6);
        let last = t.data.column(2).as_strings().unwrap();
        let seen: HashSet<&[u8]> = (0..last.len()).map(|i| last.get_bytes(i)).collect();
        assert!(seen.len() > 2_000, "{} last names", seen.len());
    }

    #[test]
    fn name_skew_produces_duplicates() {
        use std::collections::HashMap;
        let t = customer(10_000, 4);
        let mut counts: HashMap<String, usize> = HashMap::new();
        let last = t.data.column(2);
        for i in 0..last.len() {
            if let Value::Varchar(s) = last.get(i) {
                *counts.entry(s).or_default() += 1;
            }
        }
        let max_count = counts.values().max().copied().unwrap_or(0);
        assert!(
            max_count > 50,
            "common surnames repeat, got max {max_count}"
        );
    }

    #[test]
    fn warehouse_dimension() {
        let w10 = warehouse(10.0, 1);
        let w300 = warehouse(300.0, 1);
        assert!(
            w300.data.len() > w10.data.len(),
            "more warehouses at higher SF"
        );
        let sk = w10.data.column(0);
        for i in 0..sk.len() {
            assert_eq!(
                sk.get(i),
                Value::Int32(i as i32 + 1),
                "sks are dense from 1"
            );
        }
        assert_eq!(w10.column_index("w_warehouse_name"), Some(1));
    }

    #[test]
    fn warehouse_domain_matches_catalog_sales_fk() {
        // Every non-NULL cs_warehouse_sk must have a matching warehouse row.
        let sf = 10.0;
        let w = warehouse(sf, 2);
        let cs = catalog_sales(5_000, sf, 2);
        let max_sk = w.data.len() as i32;
        let fk = cs.data.column(1);
        for i in 0..fk.len() {
            if let Value::Int32(v) = fk.get(i) {
                assert!((1..=max_sk).contains(&v), "dangling FK {v}");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = customer(100, 9);
        let b = customer(100, 9);
        assert_eq!(a.data, b.data);
        let c = catalog_sales(100, 10.0, 9);
        let d = catalog_sales(100, 10.0, 9);
        assert_eq!(c.data, d.data);
    }
}
