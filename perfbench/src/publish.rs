//! Helpers shared by the workloads: run parameters, the checker's view
//! of a publication, and JSON comparison of summaries.

use crate::check::{self, Kind, Reported, Source, Verified};
use ldiversity::wire::Json;
use ldiversity::{Executor, Params, Payload, Publication};

/// Every run has a thread budget of 1.
pub fn exec() -> Executor {
    Executor::new(1)
}

/// Parameters of one run: diversity `l`, sequential, `shards` shards.
pub fn params(l: u32, shards: u32) -> Params {
    Params::new(l).with_threads(1).with_shards(shards)
}

/// The checker's view of a publication with the KL the program computed.
pub fn reported(publication: &Publication, kl: f64) -> Reported {
    Reported {
        groups: publication.partition().groups().to_vec(),
        kind: match publication.payload() {
            Payload::Suppressed(_) => Kind::Suppressed,
            _ => Kind::Other,
        },
        stars: publication.star_count(),
        kl,
    }
}

/// Checks a publication of `src`, naming `what` in the error.
pub fn verify(
    src: &Source,
    publication: &Publication,
    kl: f64,
    l: u32,
    what: &str,
) -> Result<Verified, String> {
    check::check(src, &reported(publication, kl), l).map_err(|e| format!("{what}: {e}"))
}

/// Whether a payload's KL is the box kind, charged to `metrics.kl_boxes_ms`.
pub fn is_boxes(publication: &Publication) -> bool {
    matches!(publication.payload(), Payload::Boxes(_))
}

/// A summary normalized through render and parse, so that integral
/// floats compare equal however they were built.
fn normalized(json: &Json) -> Json {
    Json::parse(&json.render()).expect("a rendered summary parses")
}

/// Compares a served summary with the library's, allowing only the
/// `cached` flag to differ.
pub fn same_summary(served: &Json, library: &Json) -> Result<(), String> {
    let mut served = served.clone();
    let mut library = normalized(library);
    if !matches!(served, Json::Obj(_)) {
        return Err("served body is not an object".into());
    }
    served.set("cached", false);
    library.set("cached", false);
    if served == library {
        return Ok(());
    }
    let field = |j: &Json, k: &str| j.get(k).map(Json::render).unwrap_or_default();
    let differing: Vec<String> = [
        "rows",
        "groups",
        "stars",
        "kl_divergence",
        "mechanism",
        "notes",
    ]
    .iter()
    .filter(|k| field(&served, k) != field(&library, k))
    .map(|k| {
        format!(
            "{k}: served {} vs library {}",
            field(&served, k),
            field(&library, k)
        )
    })
    .collect();
    Err(format!("served summary differs ({})", differing.join("; ")))
}

/// The served summary of a reply body, JSON or LDVW.
pub fn served_json(binary: bool, body: &[u8]) -> Result<Json, String> {
    if binary {
        ldiversity::wire::decode(body).map_err(|e| format!("binary body does not decode: {e}"))
    } else {
        let text = std::str::from_utf8(body).map_err(|_| "JSON body is not UTF-8".to_string())?;
        Json::parse(text).ok_or_else(|| "JSON body does not parse".to_string())
    }
}

/// An integer field of a JSON object.
pub fn int_field(json: &Json, key: &str) -> Option<i64> {
    match json.get(key)? {
        Json::Int(v) => Some(*v),
        _ => None,
    }
}
