//! Built-in synonym groups.
//!
//! COMA and LSD both consult a thesaurus of domain synonyms; the paper mentions
//! "dictionaries of synonyms" as a typical external hint source. The synthetic
//! repository generator draws its synonym mutations from these groups, so every
//! generated corpus depends on them exactly as listed.

/// The built-in synonym groups (contact data, bibliographic data, commerce).
pub fn builtin_groups() -> Vec<Vec<&'static str>> {
    vec![
        vec!["email", "e-mail", "mail", "electronicmail"],
        vec!["phone", "telephone", "tel", "phonenumber"],
        vec!["address", "addr", "location"],
        vec!["zip", "zipcode", "postalcode", "postcode"],
        vec!["name", "fullname"],
        vec!["firstname", "givenname", "forename"],
        vec!["lastname", "surname", "familyname"],
        vec!["author", "writer", "creator"],
        vec!["title", "heading", "caption"],
        vec!["book", "publication", "volume"],
        vec!["price", "cost", "amount"],
        vec!["quantity", "qty", "count"],
        vec!["customer", "client", "buyer"],
        vec!["vendor", "seller", "supplier"],
        vec!["order", "purchase"],
        vec!["product", "item", "article"],
        vec!["company", "organization", "organisation", "firm"],
        vec!["employee", "staff", "worker"],
        vec!["salary", "wage", "pay"],
        vec!["date", "day"],
        vec!["year", "yr"],
        vec!["description", "desc", "summary"],
        vec!["identifier", "id", "key"],
        vec!["country", "nation"],
        vec!["city", "town"],
        vec!["state", "province", "region"],
        vec!["library", "lib"],
        vec!["shelf", "rack"],
        vec!["isbn", "bookid"],
        vec!["publisher", "press"],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_groups_cover_common_pairs() {
        let groups = builtin_groups();
        let together = |a, b| groups.iter().any(|g| g.contains(&a) && g.contains(&b));
        assert!(together("email", "mail"));
        assert!(together("author", "writer"));
        assert!(together("zip", "postalcode"));
        assert!(!together("email", "phone"));
    }
}
